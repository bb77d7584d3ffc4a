"""Homomorphic sine/cosine evaluation (the EvalMod stage of bootstrapping).

After ModRaise the plaintext is ``m + q0 * I`` with a small integer
polynomial ``I``.  Reducing modulo ``q0`` is approximated by

    q0/(2*pi) * sin(2*pi * t / q0)  ≈  t mod q0     (for |m| << q0)

The sine is evaluated with a truncated Taylor series (the paper cites the
variable-precision Taylor approximation [8]) at the reduced argument
``theta / 2^r``; the double-angle ladder then squares its way back up.
Because the exact double angle is ``sin(2a) = 2*sin(a)*cos(a)``, the
ladder needs *both* series — :class:`SineEvaluator` therefore evaluates
the sine and cosine polynomials over one shared square-and-multiply power
ladder (:meth:`SineEvaluator.apply_pair_many`), so the cosine costs only
the extra even-power terms, not a second ladder.

The evaluation runs through a
:class:`~repro.ckks.batched_evaluator.BatchedEvaluator`, so the
HMULT/CMULT/HADD streams of ``B`` independent ciphertexts are single
``(B, L, N)`` launches and the Taylor coefficients are encoded once per
level instead of once per stream.  A lone ciphertext is the ``B = 1``
case of ``apply_many`` / ``apply_pair_many``; there is no singular spelling.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..batched_evaluator import BatchedEvaluator
from ..ciphertext import Ciphertext
from ..context import CkksContext
from ..encryptor import Encryptor
from ..keys import SwitchKey

__all__ = [
    "taylor_sine_coefficients",
    "taylor_cosine_coefficients",
    "SineEvaluator",
]


def taylor_sine_coefficients(degree: int, scale_factor: float) -> List[float]:
    """Coefficients of ``sin(scale_factor * x)`` as a Taylor series in ``x``.

    Only odd powers are non-zero; the returned list has length
    ``degree + 1`` with entry ``k`` the coefficient of ``x**k``.
    """
    coefficients = [0.0] * (degree + 1)
    for k in range(1, degree + 1, 2):
        coefficients[k] = ((-1) ** ((k - 1) // 2)) * (scale_factor ** k) / math.factorial(k)
    return coefficients


def taylor_cosine_coefficients(degree: int, scale_factor: float) -> List[float]:
    """Coefficients of ``cos(scale_factor * x)`` as a Taylor series in ``x``.

    Only even powers are non-zero (entry 0 is the constant 1); the list
    shares its power ladder with the sine series of the same degree.
    """
    coefficients = [0.0] * (degree + 1)
    coefficients[0] = 1.0
    for k in range(2, degree + 1, 2):
        coefficients[k] = ((-1) ** (k // 2)) * (scale_factor ** k) / math.factorial(k)
    return coefficients


class SineEvaluator:
    """Evaluates fixed-degree polynomials of a ciphertext homomorphically."""

    def __init__(self, context: CkksContext, coefficients: Sequence[float], *,
                 cosine_coefficients: Optional[Sequence[float]] = None) -> None:
        self.context = context
        self.coefficients = list(coefficients)
        if not self.coefficients:
            raise ValueError("polynomial must have at least one coefficient")
        self.cosine_coefficients = (list(cosine_coefficients)
                                    if cosine_coefficients is not None else None)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    # ------------------------------------------------------------------
    # The operation sequence over B fused streams
    # ------------------------------------------------------------------
    def apply_many(self, ciphertexts: Sequence[Ciphertext],
                   batched_evaluator: BatchedEvaluator, encryptor: Encryptor,
                   relinearization_key: SwitchKey) -> List[Ciphertext]:
        """Evaluate ``p(ct)`` per stream: one fused HMULT/CMULT/HADD launch per step."""
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            return []
        needed = self._needed_terms(self.coefficients)
        powers = self._build_powers_many(ciphertexts, needed,
                                         batched_evaluator, relinearization_key)
        return self._accumulate_many(self.coefficients, needed, powers,
                                     batched_evaluator, encryptor)

    def apply_pair_many(self, ciphertexts: Sequence[Ciphertext],
                        batched_evaluator: BatchedEvaluator,
                        encryptor: Encryptor, relinearization_key: SwitchKey):
        """Both series over one shared ladder: ``(sin_streams, cos_streams)``."""
        if self.cosine_coefficients is None:
            raise ValueError("apply_pair_many needs cosine_coefficients")
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            return [], []
        needed_sin = self._needed_terms(self.coefficients)
        needed_cos = self._needed_terms(self.cosine_coefficients)
        needed = sorted(set(needed_sin) | set(needed_cos))
        powers = self._build_powers_many(ciphertexts, needed,
                                         batched_evaluator, relinearization_key)
        sin_cts = self._accumulate_many(self.coefficients, needed_sin, powers,
                                        batched_evaluator, encryptor)
        cos_cts = self._accumulate_many(self.cosine_coefficients, needed_cos,
                                        powers, batched_evaluator, encryptor)
        return sin_cts, cos_cts

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _needed_terms(coefficients: Sequence[float]) -> List[int]:
        needed = [k for k, c in enumerate(coefficients) if k >= 1 and c != 0.0]
        if not needed:
            raise ValueError("polynomial has no non-constant terms")
        return needed

    def _build_powers_many(self, ciphertexts: List[Ciphertext],
                           needed: Sequence[int],
                           batched_evaluator: BatchedEvaluator,
                           relinearization_key) -> Dict[int, List[Ciphertext]]:
        """Square-and-multiply ladder for every power in ``needed``."""
        powers = {1: ciphertexts}
        highest = max(needed)
        power = 1
        while power * 2 <= highest:
            powers[power * 2] = batched_evaluator.multiply_and_rescale(
                powers[power], powers[power], relinearization_key)
            power *= 2
        for k in needed:
            if k not in powers:
                self._compose_power_many(k, powers, batched_evaluator,
                                         relinearization_key)
        return powers

    def _compose_power_many(self, exponent: int, powers,
                            batched_evaluator: BatchedEvaluator,
                            relinearization_key) -> List[Ciphertext]:
        """Build ``ct**exponent`` from already-computed power ciphertexts."""
        remaining = exponent
        parts = []
        bit = 1
        while remaining:
            if remaining & 1:
                parts.append(powers[bit])
            remaining >>= 1
            bit <<= 1
        result = parts[0]
        for part in parts[1:]:
            result = batched_evaluator.multiply_and_rescale(
                result, part, relinearization_key)
        powers[exponent] = result
        return result

    def _accumulate_many(self, coefficients: Sequence[float],
                         needed: Sequence[int],
                         powers: Dict[int, List[Ciphertext]],
                         batched_evaluator: BatchedEvaluator,
                         encryptor: Encryptor) -> List[Ciphertext]:
        accumulator = None
        for k in needed:
            bases = powers[k]
            plains = encryptor.encode_for_streams(
                np.full(self.context.slot_count, coefficients[k]), bases)
            terms = batched_evaluator.rescale(
                batched_evaluator.multiply_plain(bases, plains))
            accumulator = terms if accumulator is None else \
                self._add_aligned_many(accumulator, terms, batched_evaluator)
        constant = coefficients[0]
        if constant:
            plains = encryptor.encode_for_streams(
                np.full(self.context.slot_count, constant), accumulator)
            accumulator = batched_evaluator.add_plain(accumulator, plains)
        return accumulator

    def _add_aligned_many(self, lhs_streams: Sequence[Ciphertext],
                          rhs_streams: Sequence[Ciphertext],
                          batched_evaluator: BatchedEvaluator) -> List[Ciphertext]:
        """Add streams whose scales may differ slightly.

        Power-of-two Taylor terms end up at marginally different scales
        because the chain primes are only approximately equal to the
        encoding scale; the difference is absorbed into the result scale,
        which is the standard approximate-arithmetic treatment.
        """
        return batched_evaluator.add(lhs_streams, [
            Ciphertext(rhs.c0, rhs.c1, lhs.scale, rhs.level)
            for lhs, rhs in zip(lhs_streams, rhs_streams)
        ])
