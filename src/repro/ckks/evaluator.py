"""The singular CKKS evaluator API: one ciphertext in, one ciphertext out.

Every operation is the ``B = 1`` case of the fused ``(B, L, N)``
implementation in :class:`~repro.ckks.batched_evaluator.BatchedEvaluator`:
the methods here wrap their operands in one-element stream lists and unwrap
the result.  No arithmetic lives in this module, so a lone ciphertext and
a batch run the same kernels, produce the same bits and record the same
Table II kernel counts.
"""

from __future__ import annotations

from typing import Optional

from .batched_evaluator import BatchedEvaluator
from .ciphertext import Ciphertext, Plaintext
from .context import CkksContext
from .keys import RotationKeySet, SwitchKey

__all__ = ["Evaluator"]


class Evaluator:
    """Homomorphic operations on single CKKS ciphertexts."""

    def __init__(self, context: CkksContext) -> None:
        self.context = context
        #: The stream-list implementation every method below adapts.
        self.batched = BatchedEvaluator(context)

    # ------------------------------------------------------------------
    # Level and scale bookkeeping
    # ------------------------------------------------------------------
    def drop_to_level(self, ciphertext: Ciphertext, level: int) -> Ciphertext:
        """Reduce a ciphertext to a lower level by dropping RNS limbs."""
        return self.batched.drop_to_level([ciphertext], level)[0]

    def align(self, lhs: Ciphertext, rhs: Ciphertext):
        """Bring two ciphertexts to the same (minimum) level."""
        level = min(lhs.level, rhs.level)
        return self.drop_to_level(lhs, level), self.drop_to_level(rhs, level)

    # ------------------------------------------------------------------
    # HADD / subtraction (Alg. 5)
    # ------------------------------------------------------------------
    def add(self, lhs: Ciphertext, rhs: Ciphertext) -> Ciphertext:
        """HADD: element-wise addition of two ciphertexts."""
        return self.batched.add([lhs], [rhs])[0]

    def subtract(self, lhs: Ciphertext, rhs: Ciphertext) -> Ciphertext:
        """Element-wise subtraction of two ciphertexts."""
        return self.batched.subtract([lhs], [rhs])[0]

    def negate(self, ciphertext: Ciphertext) -> Ciphertext:
        """Negate a ciphertext."""
        return self.batched.negate([ciphertext])[0]

    def add_plain(self, ciphertext: Ciphertext, plaintext: Plaintext) -> Ciphertext:
        """Add an encoded plaintext to a ciphertext."""
        return self.batched.add_plain([ciphertext], [plaintext])[0]

    # ------------------------------------------------------------------
    # CMULT (Alg. 3), HMULT (Alg. 2), RESCALE (Alg. 6)
    # ------------------------------------------------------------------
    def multiply_plain(self, ciphertext: Ciphertext, plaintext: Plaintext) -> Ciphertext:
        """CMULT: multiply a ciphertext by an encoded plaintext."""
        return self.batched.multiply_plain([ciphertext], [plaintext])[0]

    def multiply(self, lhs: Ciphertext, rhs: Ciphertext,
                 relinearization_key: SwitchKey) -> Ciphertext:
        """HMULT: ciphertext-by-ciphertext multiplication with relinearization."""
        return self.batched.multiply([lhs], [rhs], relinearization_key)[0]

    def multiply_and_rescale(self, lhs: Ciphertext, rhs: Ciphertext,
                             relinearization_key: SwitchKey) -> Ciphertext:
        """HMULT followed by RESCALE (the common usage pattern)."""
        return self.batched.multiply_and_rescale([lhs], [rhs],
                                                 relinearization_key)[0]

    def square(self, ciphertext: Ciphertext, relinearization_key: SwitchKey) -> Ciphertext:
        """Square a ciphertext (HMULT with itself)."""
        return self.multiply(ciphertext, ciphertext, relinearization_key)

    def rescale(self, ciphertext: Ciphertext) -> Ciphertext:
        """RESCALE: drop the last prime and divide the scale by it."""
        return self.batched.rescale([ciphertext])[0]

    # ------------------------------------------------------------------
    # HROTATE (Alg. 4) and conjugation
    # ------------------------------------------------------------------
    def rotate(self, ciphertext: Ciphertext, steps: int,
               rotation_keys: RotationKeySet) -> Ciphertext:
        """HROTATE: cyclically rotate the slot vector by ``steps`` positions."""
        return self.batched.rotate([ciphertext], steps, rotation_keys)[0]

    def conjugate(self, ciphertext: Ciphertext,
                  rotation_keys: RotationKeySet) -> Ciphertext:
        """Complex-conjugate the slot vector (HCONJ)."""
        return self.batched.conjugate([ciphertext], rotation_keys)[0]

    # ------------------------------------------------------------------
    # Convenience: encrypted linear algebra helpers used by the examples
    # ------------------------------------------------------------------
    def rotate_and_sum(self, ciphertext: Ciphertext, rotation_keys: RotationKeySet,
                       count: Optional[int] = None) -> Ciphertext:
        """Sum the first ``count`` slots into every slot via log-depth rotations.

        Requires rotation keys for the powers of two below ``count``.
        """
        slot_count = self.context.slot_count
        count = slot_count if count is None else count
        if count & (count - 1):
            raise ValueError("rotate_and_sum requires a power-of-two slot count")
        result = ciphertext
        step = 1
        while step < count:
            rotated = self.rotate(result, step, rotation_keys)
            result = self.add(result, rotated)
            step *= 2
        return result
