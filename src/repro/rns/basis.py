"""RNS bases: the ciphertext modulus chain and the special (key-switching) primes.

Full-RNS CKKS (paper Section II-B) represents the wide ciphertext modulus
``Q = prod q_l`` as a chain of word-sized NTT-friendly primes, plus ``K``
special primes ``p_k`` whose product ``P`` is used by the generalized
key-switching technique [Han & Ki].  :class:`RnsBasis` owns both lists and
the dnum decomposition of the chain into groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..numtheory.primes import generate_ntt_primes

__all__ = ["RnsBasis", "build_default_basis"]


@dataclass
class RnsBasis:
    """The prime moduli underpinning one CKKS instance.

    Attributes
    ----------
    ring_degree:
        Polynomial degree ``N``.
    ciphertext_primes:
        The chain ``q_0 ... q_L`` (level ``l`` uses the first ``l+1``).
    special_primes:
        The ``K`` special primes whose product is ``P``.
    """

    ring_degree: int
    ciphertext_primes: Sequence[int]
    special_primes: Sequence[int] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.ciphertext_primes = tuple(int(q) for q in self.ciphertext_primes)
        self.special_primes = tuple(int(p) for p in self.special_primes)
        if not self.ciphertext_primes:
            raise ValueError("at least one ciphertext prime is required")
        all_primes = self.ciphertext_primes + self.special_primes
        if len(set(all_primes)) != len(all_primes):
            raise ValueError("RNS primes must be distinct")
        for prime in all_primes:
            if (prime - 1) % (2 * self.ring_degree) != 0:
                raise ValueError(
                    "prime %d is not NTT-friendly for N=%d" % (prime, self.ring_degree)
                )

    # ------------------------------------------------------------------
    @property
    def max_level(self) -> int:
        """The maximum multiplicative level ``L`` (levels are 0..L)."""
        return len(self.ciphertext_primes) - 1

    @property
    def special_count(self) -> int:
        """``K``, the number of special primes."""
        return len(self.special_primes)

    @property
    def special_product(self) -> int:
        """``P``, the product of the special primes."""
        product = 1
        for prime in self.special_primes:
            product *= prime
        return product

    def primes_at_level(self, level: int) -> Tuple[int, ...]:
        """Ciphertext primes active at ``level`` (``q_0 .. q_level``)."""
        self._check_level(level)
        return self.ciphertext_primes[: level + 1]

    def modulus_at_level(self, level: int) -> int:
        """``Q_level = prod_{i<=level} q_i``."""
        product = 1
        for prime in self.primes_at_level(level):
            product *= prime
        return product

    def extended_primes_at_level(self, level: int) -> Tuple[int, ...]:
        """Primes of the extended basis ``C_level ∪ P`` used in key switching."""
        return self.primes_at_level(level) + self.special_primes

    # ------------------------------------------------------------------
    def decomposition_groups(self, level: int, dnum: int) -> List[Tuple[int, ...]]:
        """Split the level-``level`` chain into ``dnum`` groups of ``alpha`` primes.

        Implements the decomposition of the generalized key-switching
        technique: ``Q_j = prod_{i=j*alpha}^{(j+1)*alpha - 1} q_i``.  Groups
        beyond the active level are dropped, so the returned list may be
        shorter than ``dnum`` at low levels.
        """
        if dnum <= 0:
            raise ValueError("dnum must be positive")
        primes = self.primes_at_level(level)
        alpha = -(-len(self.ciphertext_primes) // dnum)
        groups: List[Tuple[int, ...]] = []
        for start in range(0, len(primes), alpha):
            groups.append(primes[start: start + alpha])
        return groups

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.max_level:
            raise ValueError(
                "level %d out of range [0, %d]" % (level, self.max_level)
            )


def build_default_basis(ring_degree: int, level_count: int, *,
                        prime_bits: int = 28, special_count: int = 1,
                        special_bits: int = 30) -> RnsBasis:
    """Generate an :class:`RnsBasis` with NTT-friendly primes.

    ``level_count`` is the number of ciphertext primes (``L + 1``).  Special
    primes are made slightly larger than the chain primes, as required for
    the key-switching noise to stay small.
    """
    ciphertext_primes = generate_ntt_primes(level_count, prime_bits, ring_degree)
    special_primes: List[int] = []
    if special_count:
        pool = generate_ntt_primes(special_count + level_count, special_bits, ring_degree)
        for prime in pool:
            if prime not in ciphertext_primes:
                special_primes.append(prime)
            if len(special_primes) == special_count:
                break
    return RnsBasis(ring_degree, ciphertext_primes, special_primes)
