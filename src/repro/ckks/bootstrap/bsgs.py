"""Baby-Step Giant-Step homomorphic linear transforms.

The SlotToCoeff / CoeffToSlot stages of bootstrapping (and the dense layers
of the encrypted workloads) are matrix–vector products evaluated under
encryption.  Writing the matrix in diagonal form,

    M @ v = sum_d diag_d(M) ⊙ rot(v, d),

the Baby-Step Giant-Step (BSGS) algorithm groups the ``n`` diagonals into
``n1`` baby steps and ``n2`` giant steps so that only ``n1 + n2`` distinct
rotations (instead of ``n``) are required — exactly the optimisation the
paper cites for the homomorphic DFT [14, 59].
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..ciphertext import Ciphertext
from ..context import CkksContext
from ..encryptor import Encryptor
from ..evaluator import Evaluator
from ..keys import RotationKeySet

__all__ = ["matrix_diagonals", "bsgs_step_counts", "required_rotations", "BsgsLinearTransform"]


def matrix_diagonals(matrix: np.ndarray) -> Dict[int, np.ndarray]:
    """Return the generalized diagonals ``diag_d[i] = M[i, (i+d) % n]``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("BSGS transform requires a square matrix")
    n = matrix.shape[0]
    diagonals: Dict[int, np.ndarray] = {}
    for offset in range(n):
        diagonal = np.array([matrix[i, (i + offset) % n] for i in range(n)])
        if np.any(diagonal != 0):
            diagonals[offset] = diagonal
    return diagonals


def bsgs_step_counts(dimension: int) -> Sequence[int]:
    """Choose ``(n1, n2)`` with ``n1 * n2 >= dimension`` and ``n1 ≈ sqrt(dimension)``."""
    n1 = 1 << max(0, int(math.ceil(math.log2(max(1, math.isqrt(dimension))))))
    n2 = -(-dimension // n1)
    return (n1, n2)


def required_rotations(dimension: int) -> List[int]:
    """Rotation step counts a BSGS transform of size ``dimension`` may need."""
    n1, n2 = bsgs_step_counts(dimension)
    steps = set()
    for j in range(1, n1):
        steps.add(j)
    for i in range(1, n2):
        steps.add((i * n1) % dimension)
    steps.discard(0)
    return sorted(steps)


class BsgsLinearTransform:
    """Homomorphic evaluation of ``ct -> Enc(M @ v)`` with BSGS rotations."""

    def __init__(self, context: CkksContext, matrix: np.ndarray, *,
                 scale: Optional[float] = None) -> None:
        self.context = context
        self.matrix = np.asarray(matrix, dtype=np.complex128)
        if self.matrix.shape[0] != context.slot_count:
            raise ValueError(
                "matrix must be %d x %d (slot count)" % (context.slot_count,
                                                         context.slot_count)
            )
        self.scale = context.scale if scale is None else scale
        self.diagonals = matrix_diagonals(self.matrix)
        self.n1, self.n2 = bsgs_step_counts(context.slot_count)

    # ------------------------------------------------------------------
    def rotation_steps(self) -> List[int]:
        """Rotations required to evaluate this particular matrix."""
        steps = set()
        slot_count = self.context.slot_count
        for offset in self.diagonals:
            baby = offset % self.n1
            giant = offset - baby
            if baby:
                steps.add(baby)
            if giant:
                steps.add(giant % slot_count)
        return sorted(steps)

    def apply(self, ciphertext: Ciphertext, evaluator: Evaluator,
              encryptor: Encryptor, rotation_keys: RotationKeySet) -> Ciphertext:
        """Evaluate the transform on ``ciphertext`` (one level consumed)."""
        return self.apply_many([ciphertext], evaluator.batched, encryptor,
                               rotation_keys)[0]

    def apply_many(self, ciphertexts: Sequence[Ciphertext],
                   batched_evaluator, encryptor: Encryptor,
                   rotation_keys: RotationKeySet) -> List[Ciphertext]:
        """Evaluate the transform on ``B`` streams as fused launches.

        The baby-step rotations run through
        :meth:`~repro.ckks.batched_evaluator.BatchedEvaluator.rotate`
        (one automorphism gather plus one B-fused key switch per step),
        every giant-step group's diagonal multiplies are single fused
        CMULT launches, and the giant rotations fuse the same way.  Each
        shifted diagonal is encoded once per (scale, level) — not once
        per ciphertext; encoding is deterministic, so a stream's result
        does not depend on which streams share its batch.
        """
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            return []
        slot_count = self.context.slot_count
        # Group diagonals by giant step so each baby-rotated batch is reused.
        by_giant: Dict[int, Dict[int, np.ndarray]] = {}
        for offset, diagonal in self.diagonals.items():
            baby = offset % self.n1
            giant = offset - baby
            by_giant.setdefault(giant, {})[baby] = diagonal

        baby_cache: Dict[int, List[Ciphertext]] = {0: ciphertexts}
        accumulator = None
        for giant in sorted(by_giant):
            inner = None
            for baby, diagonal in sorted(by_giant[giant].items()):
                rotated = baby_cache.get(baby)
                if rotated is None:
                    rotated = batched_evaluator.rotate(ciphertexts, baby,
                                                       rotation_keys)
                    baby_cache[baby] = rotated
                # Pre-rotate the diagonal by -giant so one giant rotation at
                # the end of the group suffices (the standard BSGS trick).
                shifted = np.roll(diagonal, giant % slot_count)
                plains = encryptor.encode_for_streams(shifted, rotated,
                                                      scale=self.scale)
                terms = batched_evaluator.multiply_plain(rotated, plains)
                inner = terms if inner is None else batched_evaluator.add(
                    inner, terms)
            if giant % slot_count:
                inner = batched_evaluator.rotate(inner, giant % slot_count,
                                                 rotation_keys)
            accumulator = inner if accumulator is None else \
                batched_evaluator.add(accumulator, inner)
        if accumulator is None:
            raise ValueError("the transform matrix is identically zero")
        return batched_evaluator.rescale(accumulator)

    def reference(self, values: Sequence[complex]) -> np.ndarray:
        """Plaintext evaluation of the same transform (test oracle)."""
        vector = np.zeros(self.context.slot_count, dtype=np.complex128)
        values = np.asarray(values, dtype=np.complex128)
        vector[: values.size] = values
        return self.matrix @ vector
