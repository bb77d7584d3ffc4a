"""Baby-Step Giant-Step homomorphic linear transforms.

The SlotToCoeff / CoeffToSlot stages of bootstrapping (and the dense layers
of the encrypted workloads) are matrix–vector products evaluated under
encryption.  Writing the matrix in diagonal form,

    M @ v = sum_d diag_d(M) ⊙ rot(v, d),

the Baby-Step Giant-Step (BSGS) algorithm groups the ``n`` diagonals into
``n1`` baby steps and ``n2`` giant steps so that only ``n1 + n2`` distinct
rotations (instead of ``n``) are required — exactly the optimisation the
paper cites for the homomorphic DFT [14, 59].

Execution contract.  :meth:`BsgsLinearTransform.apply_many` evaluates the
transform on ``B`` streams through a
:class:`~repro.ckks.batched_evaluator.BatchedEvaluator` (a lone ciphertext
is its ``B = 1`` case), consuming one level; the diagonal products run in
the evaluation domain, where ciphertexts rest, so no step moves a stream
between domains:

* the input is rotated by the baby steps once, the rotations sharing
  one INTT of its ``c1`` (:func:`baby_rotations`; transforms of the same
  input share the result);
* the matrix is a constructor constant, so its diagonals are *cached constant
  handles*: pre-rotated, encoded, transformed in one fused NTT and stacked
  per giant step the first time a ``(level, scale)`` is seen, like a switch
  key's per-level operands (precomputation, not in the kernel counters).
  The cache holds one int64 residue per (diagonal, limb, coefficient) —
  ``n * L * N * 8`` bytes per level used — plus the float images a float
  backend builds on the handles on first use;
* a giant step is one
  :meth:`~repro.ckks.batched_evaluator.BatchedEvaluator.multiply_plain_sum`
  launch against its stack, followed by the giant rotations and the adds;
  the last rotated giant step is added and rescaled inside its key switch
  (:meth:`~repro.ckks.batched_evaluator.BatchedEvaluator.
  rotate_add_rescale`), so the rescale costs no transform of its own.

NTT and INTT are exact and linear mod q, so every output residue is the one
the diagonal-by-diagonal CMULT + HADD evaluation produces.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ...backend.residency import DeviceBuffer, stack_arrays
from ..ciphertext import Ciphertext
from ..context import CkksContext
from ..encryptor import Encryptor
from ..keys import RotationKeySet

__all__ = ["matrix_diagonals", "bsgs_step_counts", "required_rotations",
           "baby_rotations", "BsgsLinearTransform"]


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


def baby_rotations(ciphertexts: Sequence[Ciphertext], steps: Iterable[int],
                   batched_evaluator,
                   rotation_keys: RotationKeySet) -> Dict[int, List[Ciphertext]]:
    """The streams rotated by every baby step.

    One fused HROTATE per non-zero step (step 0 is the streams
    themselves), all of them sharing one INTT of every stream's ``c1``
    (:meth:`~repro.ckks.batched_evaluator.BatchedEvaluator.rotate_each`).
    The result feeds :meth:`BsgsLinearTransform.apply_many` as
    ``babies=``; transforms of the same input pass the union of their
    :attr:`~BsgsLinearTransform.baby_steps` and share it.
    """
    ciphertexts, steps = list(ciphertexts), sorted(set(steps))
    rotated = [step for step in steps if step]
    babies = dict(zip(rotated, batched_evaluator.rotate_each(
        ciphertexts, rotated, rotation_keys)))
    if 0 in steps:
        babies[0] = ciphertexts
    return babies


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
        #: Baby steps of the non-zero diagonals of each giant step, both in
        #: ascending order.
        self.groups: Dict[int, List[int]] = {}
        for offset in sorted(self.diagonals):
            baby = offset % self.n1
            self.groups.setdefault(offset - baby, []).append(baby)
        #: Per ``(level, scale)``: the NTT-form diagonal stack of each giant step.
        self._operands: Dict[Tuple[int, float], Dict[int, DeviceBuffer]] = {}

    # ------------------------------------------------------------------
    def rotation_steps(self) -> List[int]:
        """Rotations required to evaluate this particular matrix."""
        steps = set(self.baby_steps)
        steps.update(giant % self.context.slot_count for giant in self.groups)
        steps.discard(0)
        return sorted(steps)

    @property
    def baby_steps(self) -> List[int]:
        """The distinct baby steps of the non-zero diagonals (0 included)."""
        return sorted({baby for babies in self.groups.values() for baby in babies})

    def apply_many(self, ciphertexts: Sequence[Ciphertext],
                   batched_evaluator, encryptor: Encryptor,
                   rotation_keys: RotationKeySet, *,
                   babies: Optional[Dict[int, List[Ciphertext]]] = None
                   ) -> List[Ciphertext]:
        """Evaluate the transform on ``B`` streams as fused launches.

        ``babies`` is :func:`baby_rotations` of ``ciphertexts`` over (at
        least) :attr:`baby_steps`, for callers that apply several
        transforms to one input; by default it is computed here.  Each
        giant step is then one fused multiply-accumulate against its
        cached diagonal stack, and the giant rotations, the adds and the
        rescale run B-fused.  A stream's result does not depend on which
        streams share its batch.
        """
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            return []
        if not self.groups:
            raise ValueError("the transform matrix is identically zero")
        if babies is None:
            babies = baby_rotations(ciphertexts, self.baby_steps,
                                    batched_evaluator, rotation_keys)
        inner = [
            ciphertext for giant in self.groups
            for ciphertext in batched_evaluator.multiply_plain_sum(
                [babies[baby] for baby in self.groups[giant]],
                lambda level, giant=giant: self._diagonal_operands(
                    level, encryptor)[giant],
                self.scale)
        ]
        slot_count, batch = self.context.slot_count, len(ciphertexts)
        # The last rotated giant step is added and rescaled inside its key
        # switch (modular addition is exact, so the order of the sum moves
        # no bit).
        rotated = [index for index, giant in enumerate(self.groups)
                   if giant % slot_count]
        last = rotated[-1] if rotated and len(self.groups) > 1 else None
        accumulator = None
        for index, giant in enumerate(self.groups):
            group = inner[index * batch:(index + 1) * batch]
            if index == last:
                held, steps = group, giant % slot_count
                continue
            if giant % slot_count:
                group = batched_evaluator.rotate(group, giant % slot_count,
                                                 rotation_keys)
            accumulator = group if accumulator is None else \
                batched_evaluator.add(accumulator, group)
        if last is None:
            return batched_evaluator.rescale(accumulator)
        return batched_evaluator.rotate_add_rescale(
            held, steps, rotation_keys, accumulator)

    def _diagonal_operands(self, level: int,
                           encryptor: Encryptor) -> Dict[int, DeviceBuffer]:
        """The ``(L, k, 1, N)`` NTT-form diagonal stack of every giant step.

        Built the first time ``(level, scale)`` is seen: every diagonal is
        pre-rotated by its giant step (so one giant rotation at the end of
        the group suffices — the standard BSGS trick), encoded, and all of
        them are transformed in one fused NTT.  This is precomputation on
        a constant, like key generation: it is not part of any stream's
        kernel counts, which therefore do not depend on whether a stream
        came first.  Runs inside the evaluator's launch, on the backend
        that launch is pinned to.
        """
        key = (level, self.scale)
        operands = self._operands.get(key)
        if operands is None:
            context = self.context
            moduli = context.moduli_at_level(level)
            slots = [(giant, baby) for giant, babies in self.groups.items()
                     for baby in babies]
            evals = context.planner.forward_ops(
                context.ring_degree, moduli, stack_arrays([
                    encryptor.encode(
                        np.roll(self.diagonals[giant + baby],
                                giant % context.slot_count),
                        scale=self.scale, level=level).polynomial.buffer
                    for giant, baby in slots])).host(moduli, axis=1)
            # Each giant step's operand is a limb-major view of the one stack.
            operands, start = {}, 0
            for giant, babies in self.groups.items():
                stop = start + len(babies)
                operands[giant] = DeviceBuffer.constant(
                    evals[start:stop].transpose(1, 0, 2)[:, :, None])
                start = stop
            self._operands[key] = operands
        return operands

    def reference(self, values: Sequence[complex]) -> np.ndarray:
        """Plaintext evaluation of the same transform (test oracle)."""
        vector = np.zeros(self.context.slot_count, dtype=np.complex128)
        values = np.asarray(values, dtype=np.complex128)
        vector[: values.size] = values
        return self.matrix @ vector
