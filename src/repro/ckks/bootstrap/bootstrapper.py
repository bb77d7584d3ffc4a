"""The full CKKS bootstrap pipeline (paper Figure 6).

Stages, in the order of the classic (non-slim) pipeline:

1. **ModRaise** — re-embed the exhausted ciphertext at a high level,
   introducing the ``q0 * I(X)`` term;
2. **CoeffToSlot** — homomorphic DFT moving coefficients into slots
   (BSGS linear transforms + conjugation);
3. **EvalMod / Sine evaluation** — remove ``q0 * I`` by evaluating
   ``(q0 / 2*pi) * sin(2*pi*t / q0)``: Taylor series of sine *and*
   cosine at the reduced argument ``theta / 2^r`` over one shared power
   ladder, then ``r`` exact double-angle iterations
   ``(s, c) -> (2*s*c, 1 - 2*s^2)``;
4. **SlotToCoeff** — homomorphic DFT back to coefficients.

The result is a ciphertext of the same message at a higher level.  The
functional accuracy of the composed pipeline at toy parameters is limited
by the small prime sizes this pure-Python reproduction uses (the paper
runs with 60-bit-scale moduli); the dominant residual is the intrinsic
sine-vs-identity error ``~(2*pi*m/q0)^2 * m / 6``, so messages must stay
small relative to ``q0 / Delta``.

:meth:`Bootstrapper.bootstrap_many` runs the whole pipeline for ``B``
ciphertexts as fused ``(B, L, N)`` / ``(B, dnum, L, N)`` launches through
a :class:`~repro.ckks.batched_evaluator.BatchedEvaluator`; a lone
ciphertext is its ``B = 1`` case (``TensorFheContext.bootstrap``), and no
stage has a one-ciphertext spelling of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..batched_evaluator import BatchedEvaluator
from ..ciphertext import Ciphertext
from ..context import CkksContext
from ..encryptor import Encryptor
from ..keys import RotationKeySet, SwitchKey
from .dft import CoeffToSlot, SlotToCoeff
from .mod_raise import ModRaise
from .sine_eval import (
    SineEvaluator,
    taylor_cosine_coefficients,
    taylor_sine_coefficients,
)

__all__ = ["BootstrapConfig", "Bootstrapper"]


@dataclass
class BootstrapConfig:
    """Tunable knobs of the bootstrap pipeline."""

    taylor_degree: int = 7
    double_angle_iterations: int = 2

    @property
    def eval_mod_depth(self) -> int:
        """Levels consumed by the EvalMod stage.

        The shared sine/cosine ladder costs ``ceil(log2(degree)) + 1``
        levels, each double-angle iteration one, and the final
        ``q0 / (2*pi*Delta)`` factor one more.
        """
        sine_depth = max(1, math.ceil(math.log2(max(2, self.taylor_degree)))) + 1
        return sine_depth + self.double_angle_iterations + 1


class Bootstrapper:
    """Composes ModRaise, CoeffToSlot, EvalMod and SlotToCoeff."""

    def __init__(self, context: CkksContext,
                 config: Optional[BootstrapConfig] = None) -> None:
        self.context = context
        self.config = config or BootstrapConfig()
        self.mod_raise = ModRaise(context)
        self.coeff_to_slot = CoeffToSlot(context)
        self.slot_to_coeff = SlotToCoeff(context)

    # ------------------------------------------------------------------
    def required_rotation_steps(self) -> List[int]:
        """All rotation steps needed by the two DFT stages."""
        steps = set(self.coeff_to_slot.rotation_steps())
        steps.update(self.slot_to_coeff.rotation_steps())
        return sorted(steps)

    # ------------------------------------------------------------------
    def bootstrap_many(self, ciphertexts: Sequence[Ciphertext],
                       batched_evaluator: BatchedEvaluator,
                       encryptor: Encryptor, relinearization_key: SwitchKey,
                       rotation_keys: RotationKeySet) -> List[Ciphertext]:
        """Bootstrap ``B`` ciphertexts as fused batched launches.

        Every stage runs its per-stream operation sequence through the
        batched evaluator, so a stream's refreshed bits and the kernel
        counts it adds do not depend on the batch it rode in.
        """
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            return []
        raised = self.mod_raise.apply_many(ciphertexts)
        slot_lows, slot_highs = self.coeff_to_slot.apply_many(
            raised, batched_evaluator, encryptor, rotation_keys)
        reduced_lows = self._eval_mod_many(
            slot_lows, batched_evaluator, encryptor, relinearization_key)
        reduced_highs = self._eval_mod_many(
            slot_highs, batched_evaluator, encryptor, relinearization_key)
        return self.slot_to_coeff.apply_many(
            reduced_lows, reduced_highs, batched_evaluator, encryptor,
            rotation_keys)

    # ------------------------------------------------------------------
    def _sine_evaluator(self) -> SineEvaluator:
        """The sine/cosine pair evaluator at the reduced ladder argument."""
        base_prime = self.context.basis.ciphertext_primes[0]
        config = self.config
        ladder = 1 << config.double_angle_iterations
        # The slots currently hold t / Delta; the sine argument must be
        # 2*pi*t/(q0 * 2^r), so the scale factor below folds Delta back in.
        scale_factor = (2.0 * math.pi * self.context.scale
                        / (base_prime * ladder))
        return SineEvaluator(
            self.context,
            taylor_sine_coefficients(config.taylor_degree, scale_factor),
            cosine_coefficients=taylor_cosine_coefficients(
                config.taylor_degree, scale_factor),
        )

    def _eval_mod_many(self, ciphertexts: Sequence[Ciphertext],
                       batched_evaluator: BatchedEvaluator,
                       encryptor: Encryptor,
                       relinearization_key: SwitchKey) -> List[Ciphertext]:
        """Approximate ``t mod q0`` on every slot via the sine evaluation."""
        base_prime = self.context.basis.ciphertext_primes[0]
        sine = self._sine_evaluator()
        # Both series at the reduced argument a = 2*pi*t/(q0*2^r), then r
        # exact double-angle iterations: s' = 2*s*c, c' = 1 - 2*s^2.  Each
        # iteration costs one level: s*c and s*s are one HMULT over 2B
        # streams, so every s is transformed once; the doublings are plain
        # HADDs of a ciphertext with itself.
        sin_cts, cos_cts = sine.apply_pair_many(
            ciphertexts, batched_evaluator, encryptor, relinearization_key)
        batch = len(sin_cts)
        for _ in range(self.config.double_angle_iterations):
            both = batched_evaluator.multiply_and_rescale(
                sin_cts + sin_cts, cos_cts + sin_cts, relinearization_key)
            products, squares = both[:batch], both[batch:]
            sin_cts = batched_evaluator.add(products, products)
            doubled = batched_evaluator.add(squares, squares)
            cos_cts = batched_evaluator.negate(doubled)
            ones = encryptor.encode_for_streams(
                np.full(self.context.slot_count, 1.0), cos_cts)
            cos_cts = batched_evaluator.add_plain(cos_cts, ones)
        # Rescale the sine value back into message units: t mod q0 ~=
        # (q0 / 2*pi) * sin(2*pi*t/q0); the slots should end up holding m/Delta.
        final_factor = base_prime / (2.0 * math.pi * self.context.scale)
        plains = encryptor.encode_for_streams(
            np.full(self.context.slot_count, final_factor), sin_cts)
        return batched_evaluator.rescale(
            batched_evaluator.multiply_plain(sin_cts, plains))

    # ------------------------------------------------------------------
    def reference_mod(self, values: np.ndarray) -> np.ndarray:
        """Plaintext reference of the EvalMod stage (for the tests)."""
        base_prime = self.context.basis.ciphertext_primes[0]
        values = np.asarray(values, dtype=np.float64)
        return base_prime / (2 * math.pi) * np.sin(2 * math.pi * values / base_prime)
