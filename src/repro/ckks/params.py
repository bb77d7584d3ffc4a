"""CKKS parameter sets, including the paper's Table V configurations.

Two kinds of parameter sets coexist:

* *functional* presets (``toy``, ``small``, ``medium``) with reduced ring
  degree and 28-bit primes, used by the tests and the runnable examples —
  the CKKS algorithms are degree-agnostic, so correctness shown at N=2^10
  carries over;
* the *paper* presets of Table V (``default``, ``resnet20``, ``lr``,
  ``lstm``, ``packed_bootstrapping``), which the performance model and the
  benchmarks use to reproduce the evaluation at the paper's exact
  parameters.  They can also be instantiated functionally, but at N=2^16
  pure-Python execution is impractically slow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..ntt.planner import DEFAULT_ENGINE, check_engine

__all__ = ["CkksParameters", "PAPER_PARAMETERS", "FUNCTIONAL_PARAMETERS", "get_preset"]


@dataclass(frozen=True)
class CkksParameters:
    """Static parameters of one CKKS instance.

    Attributes
    ----------
    ring_degree:
        Polynomial degree ``N`` (power of two); ``N/2`` complex slots.
    level_count:
        Number of ciphertext primes, i.e. ``L + 1``.
    scale_bits:
        ``log2`` of the encoding scale ``Delta``.
    prime_bits:
        Bit width of the ciphertext chain primes (kept close to
        ``scale_bits`` so rescaling preserves the scale).
    special_prime_count:
        ``K``, the number of special key-switching primes.
    special_prime_bits:
        Bit width of the special primes.
    dnum:
        Decomposition number of the generalized key switching.
    error_std:
        Standard deviation of the LWE error distribution.
    secret_hamming_weight:
        Hamming weight of the sparse ternary secret (``None`` = dense).
    ntt_engine:
        Name of the NTT engine the functional stack uses.
    batch_size:
        Default operation-level batch size (paper Table V, used by the
        performance model).
    """

    ring_degree: int
    level_count: int
    scale_bits: int = 28
    prime_bits: int = 28
    special_prime_count: int = 1
    special_prime_bits: int = 30
    dnum: int = 3
    error_std: float = 3.2
    secret_hamming_weight: Optional[int] = 64
    ntt_engine: str = DEFAULT_ENGINE
    batch_size: int = 128
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.ring_degree < 8 or self.ring_degree & (self.ring_degree - 1):
            raise ValueError("ring_degree must be a power of two >= 8")
        if self.level_count < 1:
            raise ValueError("level_count must be at least 1")
        if self.dnum < 1:
            raise ValueError("dnum must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        check_engine(self.ntt_engine)

    # ------------------------------------------------------------------
    @property
    def max_level(self) -> int:
        """Maximum multiplicative level ``L``."""
        return self.level_count - 1

    @property
    def slot_count(self) -> int:
        """Number of complex slots (``N / 2``)."""
        return self.ring_degree // 2

    @property
    def scale(self) -> float:
        """The encoding scale ``Delta``."""
        return float(1 << self.scale_bits)

    @property
    def log_pq(self) -> int:
        """Approximate ``log2(P * Q)`` (the Table V ``logPQ`` column)."""
        return (self.level_count * self.prime_bits
                + self.special_count * self.special_prime_bits)

    @property
    def alpha(self) -> int:
        """Number of primes per key-switching decomposition group."""
        return math.ceil(self.level_count / self.dnum)

    @property
    def special_count(self) -> int:
        """The special primes a context makes: ``K``, at least ``alpha``.

        Generalized key switching needs ``P >= max_j Q_j`` (Section II-B of
        the paper), so a group of ``alpha`` primes needs ``alpha`` special
        primes of at least their width.
        """
        return max(self.special_prime_count, self.alpha)

    def describe(self) -> Dict[str, object]:
        """A human-readable summary dictionary (used in reports)."""
        return {
            "name": self.name,
            "N": self.ring_degree,
            "L": self.max_level,
            "K": self.special_count,
            "dnum": self.dnum,
            "logPQ": self.log_pq,
            "batch_size": self.batch_size,
            "ntt_engine": self.ntt_engine,
        }


def _paper(name: str, ring_degree: int, level_count: int, special: int,
           batch_size: int, dnum: int = 5) -> CkksParameters:
    """Build a Table V preset (35-bit-scale class parameters, model use)."""
    return CkksParameters(
        ring_degree=ring_degree,
        level_count=level_count,
        scale_bits=28,
        prime_bits=28,
        special_prime_count=special,
        special_prime_bits=30,
        dnum=dnum,
        batch_size=batch_size,
        name=name,
    )


#: Table V of the paper.  ``level_count`` is ``L + 1``.
PAPER_PARAMETERS: Dict[str, CkksParameters] = {
    "default": _paper("default", 1 << 16, 45, 1, 128),
    "resnet20": _paper("resnet20", 1 << 16, 30, 1, 64),
    "lr": _paper("lr", 1 << 16, 39, 1, 64),
    "lstm": _paper("lstm", 1 << 15, 26, 1, 32),
    "packed_bootstrapping": _paper("packed_bootstrapping", 1 << 16, 58, 1, 32),
}

#: Reduced-size presets for functional tests and examples.
FUNCTIONAL_PARAMETERS: Dict[str, CkksParameters] = {
    "toy": CkksParameters(ring_degree=1 << 6, level_count=3, dnum=3,
                          secret_hamming_weight=8, name="toy"),
    "small": CkksParameters(ring_degree=1 << 8, level_count=4, dnum=2,
                            secret_hamming_weight=16, name="small"),
    "medium": CkksParameters(ring_degree=1 << 10, level_count=6, dnum=3,
                             secret_hamming_weight=32, name="medium"),
    "large": CkksParameters(ring_degree=1 << 12, level_count=8, dnum=4,
                            secret_hamming_weight=64, name="large"),
}


def get_preset(name: str) -> CkksParameters:
    """Look up a preset by name in the functional and paper tables."""
    if name in FUNCTIONAL_PARAMETERS:
        return FUNCTIONAL_PARAMETERS[name]
    if name in PAPER_PARAMETERS:
        return PAPER_PARAMETERS[name]
    raise KeyError(
        "unknown parameter preset %r; available: %s"
        % (name, sorted(set(FUNCTIONAL_PARAMETERS) | set(PAPER_PARAMETERS)))
    )
