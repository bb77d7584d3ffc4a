"""Key material: secret, public, relinearization, rotation and conjugation keys.

The secret key is kept as a signed ternary coefficient vector so it can be
reduced into any RNS basis on demand; its NTT image, which decryption,
symmetric encryption and key generation all multiply by, is computed once
over a context's whole extended chain and restricted from there.  What
decryption and encryption multiply by at every call is a cached constant
handle per level: the secret's image over the level's chain, and the
public pair ``(b, a)`` as one limb-major ``(L, 2, N)`` operand, so a float
backend splits either into its hi/lo images once.  The public key and
every switch key are samples of the one RLWE sampler,
:func:`~repro.ckks.encryptor.sample_rlwe` (:mod:`repro.ckks.keygen`).  Switch
keys (used for relinearization, rotation and conjugation) follow the
generalized key-switching of the paper: at the top level they hold one
``(b_j, a_j)`` pair per decomposition group, stored in the evaluation domain
over the extended basis ``C_L ∪ P`` as two stacked residue matrices, with
their ciphertext-prime limbs multiplied by ``P^{-1} mod q_i``: the
key-switch inner product then hands ModDown limbs that already carry
``P^{-1}`` (its tail alone remains: :meth:`~repro.rns.moddown.ModDown.
correction`), and HMULT can add ``d0``, ``d1`` to the accumulators.  Both
factors are per prime, so level ``l``'s key is the top level's rows ``C_l
∪ P`` of its groups (as in SEAL and Lattigo).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backend.residency import DeviceBuffer
from ..rns.poly import RnsPolynomial

__all__ = ["SecretKey", "PublicKey", "SwitchKey", "SwitchKeyLevel", "RotationKeySet"]


@dataclass
class SecretKey:
    """The ternary secret ``s`` as signed integer coefficients."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=np.int64)
        self._evaluation: Optional[RnsPolynomial] = None
        self._operands: Dict[Tuple[int, ...], DeviceBuffer] = {}

    @property
    def ring_degree(self) -> int:
        return int(self.coefficients.shape[0])

    def as_polynomial(self, moduli: Sequence[int]) -> RnsPolynomial:
        """Reduce the signed coefficients into the given RNS basis."""
        return RnsPolynomial.from_integers(self.coefficients, moduli, self.ring_degree)

    def evaluation(self, context, moduli: Sequence[int]) -> RnsPolynomial:
        """The evaluation-domain image of ``s`` over ``moduli``.

        The image over ``context``'s full extended chain is computed on first
        use and kept; the NTT is per limb, so the image over any sub-chain is
        a restriction of it.  Treat :attr:`coefficients` as immutable once a
        key is in use.
        """
        full = context.extended_moduli_at_level(context.max_level)
        if self._evaluation is None or self._evaluation.moduli != full:
            self._evaluation = self.as_polynomial(full).to_evaluation(
                context.planner)
        return self._evaluation.restrict_to(moduli)

    def operand(self, context, moduli: Sequence[int]) -> DeviceBuffer:
        """:meth:`evaluation` over ``moduli`` as a constant ``(L, N)`` handle.

        Built on first use per chain and kept, like the switch keys' levels.
        """
        moduli = tuple(int(q) for q in moduli)
        operand = self._operands.get(moduli)
        if operand is None:
            operand = self._operands[moduli] = DeviceBuffer.constant(
                self.evaluation(context, moduli).residues)
        return operand

    @property
    def hamming_weight(self) -> int:
        """Number of non-zero secret coefficients."""
        return int(np.count_nonzero(self.coefficients))


@dataclass
class PublicKey:
    """Encryption key pair ``(b, a)`` with ``b = -a*s + e`` (evaluation domain)."""

    b: RnsPolynomial
    a: RnsPolynomial

    def __post_init__(self) -> None:
        self._operands: Dict[Tuple[int, ...], DeviceBuffer] = {}

    @property
    def moduli(self):
        return self.b.moduli

    def operand(self, moduli: Sequence[int]) -> DeviceBuffer:
        """``(b, a)`` over ``moduli`` as one constant ``(L, 2, N)`` handle.

        Built on first use per chain and kept.  The memory is ``(2, L, N)``
        viewed limb-major, so a product against it comes out in the layout
        the add of both components' addend reads.
        """
        moduli = tuple(int(q) for q in moduli)
        operand = self._operands.get(moduli)
        if operand is None:
            pair = np.stack([key.restrict_to(moduli).residues
                             for key in (self.b, self.a)])
            operand = self._operands[moduli] = DeviceBuffer.constant(
                pair.transpose(1, 0, 2))
        return operand


@dataclass
class SwitchKeyLevel:
    """Key-switching material for one ciphertext level.

    The ``(b_j, a_j)`` pairs of the ``dnum`` decomposition groups are held
    once, concatenated group after group into the two ``(dnum * L', N)``
    evaluation-domain residue matrices ``stacks = (b, a)`` over the
    extended basis, each group's ciphertext-prime rows times ``P^{-1}``
    (the key generator makes them so, in the same launch for every group:
    there is no unscaled copy).  The fused inner product consumes them as
    ``operands``:
    the same memory viewed limb-major, ``(L', dnum, 1, N)``, as constant
    handles (a float backend caches its images of a level there the first
    time the level is used).
    """

    level: int
    group_moduli: List[Tuple[int, ...]]
    stacks: Tuple[np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        dnum = len(self.group_moduli)
        for stack in self.stacks:
            if stack.ndim != 2 or stack.shape[0] % dnum:
                raise ValueError(
                    "one extended-basis slice per decomposition group is required")
        self.operands = tuple(
            DeviceBuffer.constant(stack.reshape(dnum, -1, stack.shape[1])
                           .transpose(1, 0, 2)[:, :, None])
            for stack in self.stacks)

    def restrict(self, level: int) -> "SwitchKeyLevel":
        """``level``'s material: rows ``C_level ∪ P`` of the groups holding
        its primes, each group cut to them (the lower chain's groups)."""
        primes, dnum = sum(self.group_moduli, ()), len(self.group_moduli)
        alpha, rows = len(self.group_moduli[0]), self.stacks[0].shape[0] // dnum
        groups = [primes[start:min(start + alpha, level + 1)]
                  for start in range(0, level + 1, alpha)]
        keep = np.r_[0:level + 1, len(primes):rows]   # C_level, then P
        return SwitchKeyLevel(level, groups, tuple(
            stack.reshape(dnum, rows, -1)[:len(groups), keep].reshape(
                -1, stack.shape[1]) for stack in self.stacks))


@dataclass
class SwitchKey:
    """A key switching key from some secret ``s_from`` to the canonical ``s``.

    ``top`` is the generated material; a lower level is its restriction,
    cut on first use and kept: one constant handle per level.
    """

    top: Optional[SwitchKeyLevel] = None
    description: str = "switch"

    def __post_init__(self) -> None:
        self._levels = {} if self.top is None else {self.top.level: self.top}

    def at_level(self, level: int) -> SwitchKeyLevel:
        if self.top is None or not 0 <= level <= self.top.level:
            raise KeyError("no %s key material for level %d"
                           % (self.description, level))
        if level not in self._levels:
            self._levels[level] = self.top.restrict(level)
        return self._levels[level]


@dataclass
class RotationKeySet:
    """Rotation and conjugation keys; one per step modulo ``slot_count``."""

    slot_count: int
    keys: Dict[int, SwitchKey] = field(default_factory=dict)
    conjugation_key: Optional[SwitchKey] = None

    def add(self, steps: int, key: SwitchKey) -> None:
        self.keys[steps % self.slot_count] = key

    def for_steps(self, steps: int) -> SwitchKey:
        try:
            return self.keys[steps % self.slot_count]
        except KeyError:
            raise KeyError(
                "no rotation key for %d steps; generate it with "
                "KeyGenerator.generate_rotation_keys" % steps
            ) from None
