"""Baby-Step Giant-Step homomorphic linear transforms.

The SlotToCoeff / CoeffToSlot stages of bootstrapping (and the dense layers
of the encrypted workloads) are matrix–vector products evaluated under
encryption.  Writing the matrix in diagonal form,

    M @ v = sum_d diag_d(M) ⊙ rot(v, d),

the Baby-Step Giant-Step (BSGS) algorithm groups the ``n`` diagonals into
``n1`` baby steps and ``n2`` giant steps so that only ``n1 + n2`` distinct
rotations (instead of ``n``) are required — exactly the optimisation the
paper cites for the homomorphic DFT [14, 59].

Execution contract.  :func:`apply_group` evaluates a *group* of
transforms through a :class:`~repro.ckks.batched_evaluator.
BatchedEvaluator`, each transform on the ``B`` streams of its input (a lone
ciphertext is the ``B = 1`` case, and :meth:`BsgsLinearTransform.
apply_many` is the group of one transform), consuming one level.  The
diagonal products run in the evaluation domain, where ciphertexts rest, so
no step moves a stream between domains, and independent work of the
group's transforms shares each launch:

* every distinct input is rotated by the baby steps of the transforms that
  read it, all inputs in one
  :meth:`~repro.ckks.batched_evaluator.BatchedEvaluator.rotate_each` over
  their concatenation, the rotations of a stream sharing one INTT of its
  ``c1``;
* the matrix is a constructor constant, so its diagonals are *cached constant
  handles*: pre-rotated, encoded, transformed in one fused NTT and stacked
  per giant step the first time a ``(level, scale)`` is seen, like a switch
  key's per-level operands (precomputation, not in the kernel counters).
  The cache holds one int64 residue per (diagonal, limb, coefficient) —
  ``n * L * N * 8`` bytes per level used — plus the float images a float
  backend builds on the handles on first use;
* per giant step, each transform's
  :meth:`~repro.ckks.batched_evaluator.BatchedEvaluator.multiply_plain_sum`
  runs against its own stack, just before the step's one giant rotation
  and one add over every transform's products (so one step's products are
  alive at a time); a group of ``T`` transforms launches up to ``T * B``
  streams there;
* each transform's last rotated giant step is added and rescaled inside
  its key switch (:meth:`~repro.ckks.batched_evaluator.BatchedEvaluator.
  rotate_add_rescale`), one launch for the group, so the rescale costs no
  transform of its own.

NTT and INTT are exact and linear mod q, so every output residue is the one
the diagonal-by-diagonal CMULT + HADD evaluation produces, and a stream's
bits and kernel counts do not depend on the group or batch it rides in;
only the launches do.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...backend.residency import DeviceBuffer, stack_arrays
from ..ciphertext import Ciphertext
from ..context import CkksContext
from ..encryptor import Encryptor
from ..keys import RotationKeySet

__all__ = ["matrix_diagonals", "bsgs_step_counts", "apply_group",
           "BsgsLinearTransform"]


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
                   rotation_keys: RotationKeySet) -> List[Ciphertext]:
        """Evaluate the transform on ``B`` streams: the group of one
        transform of :func:`apply_group`."""
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            return []
        return apply_group([(ciphertexts, (self,))], batched_evaluator,
                           encryptor, rotation_keys)[0][0]

    def _giant_step(self, giant: int, babies: Dict[int, List[Ciphertext]],
                    batched_evaluator,
                    encryptor: Encryptor) -> List[Ciphertext]:
        """Giant step ``giant`` before its rotation: one multiply-accumulate
        of the baby rotations against its cached diagonal stack."""
        return batched_evaluator.multiply_plain_sum(
            [babies[baby] for baby in self.groups[giant]],
            lambda level: self._diagonal_operands(level, encryptor)[giant],
            self.scale)

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


def apply_group(groups: Sequence[Tuple[Sequence[Ciphertext],
                                       Sequence[BsgsLinearTransform]]],
                batched_evaluator, encryptor: Encryptor,
                rotation_keys: RotationKeySet) -> List[List[List[Ciphertext]]]:
    """Evaluate transforms of one context on their inputs as fused launches.

    ``groups`` pairs each distinct input (its ``B`` streams) with the
    transforms applied to it; the result has the same nesting: per input,
    per transform, the transformed streams.  The inputs' baby rotations
    are one fused launch (one per distinct set of baby steps); per giant
    step, each transform's products are one multiply-accumulate against its
    cached diagonal stack, then one giant rotation and one add run over
    every transform's products; each transform's last rotated giant step
    is added and rescaled inside its key switch, one launch for the group
    (module docstring).  Every stream's result and counts are those of its
    transform alone.
    """
    inputs = [list(streams) for streams, _ in groups]
    jobs = [(transform, index) for index, (_, transforms) in enumerate(groups)
            for transform in transforms]
    for transform, _ in jobs:
        if not transform.groups:
            raise ValueError("the transform matrix is identically zero")

    def fused(members, launch, *columns):
        """``launch`` over the concatenated streams ``columns[k][j]`` of
        the jobs ``members``, split back per job."""
        flat = [[ct for j in members for ct in column[j]] for column in columns]
        out = launch(*flat) if flat[0] else []
        return dict(zip(members, _split(
            out, [len(inputs[jobs[j][1]]) for j in members])))

    # Inputs read by transforms of the same baby steps rotate in one launch.
    babies = [{0: streams} for streams in inputs]
    by_steps: Dict[Tuple[int, ...], List[int]] = {}
    for index, (_, transforms) in enumerate(groups):
        steps = {step for transform in transforms
                 for step in transform.baby_steps if step}
        by_steps.setdefault(tuple(sorted(steps)), []).append(index)
    for steps, members in by_steps.items():
        rotated = batched_evaluator.rotate_each(
            [ct for index in members for ct in inputs[index]], steps,
            rotation_keys) if steps else []
        for step, streams in zip(steps, rotated):
            for index, part in zip(members, _split(
                    streams, [len(inputs[index]) for index in members])):
                babies[index][step] = part
    # A transform's last giant step is added and rescaled inside its key
    # switch (modular addition is exact, so the order of the sum moves no
    # bit).  Giant steps lie in [0, slots): only step 0 is not rotated.
    closes = [max(transform.groups) if len(transform.groups) > 1 else None
              for transform, _ in jobs]
    sums: Dict[int, List[Ciphertext]] = {}
    results: Dict[int, List[Ciphertext]] = {}
    for giant in sorted({giant for transform, _ in jobs
                         for giant in transform.groups}):
        members = [j for j, (transform, _) in enumerate(jobs)
                   if giant in transform.groups]
        products = {j: jobs[j][0]._giant_step(giant, babies[jobs[j][1]],
                                              batched_evaluator, encryptor)
                    for j in members}
        results.update(fused(
            [j for j in members if closes[j] == giant],
            lambda held, addends: batched_evaluator.rotate_add_rescale(
                held, giant, rotation_keys, addends),
            products, sums))
        rest = [j for j in members if closes[j] != giant]
        if giant:
            products.update(fused(rest, lambda streams: batched_evaluator.rotate(
                streams, giant, rotation_keys), products))
        started = [j for j in rest if j in sums]
        sums.update({j: products[j] for j in rest if j not in sums})
        sums.update(fused(started, batched_evaluator.add, sums, products))
    results.update(fused([j for j in sums if j not in results],
                         batched_evaluator.rescale, sums))
    return _split([results[j] for j in range(len(jobs))],
                  [len(transforms) for _, transforms in groups])


def _split(items: Sequence, sizes: Sequence[int]) -> List:
    """``items`` cut into consecutive runs of ``sizes``."""
    runs, start = [], 0
    for size in sizes:
        runs.append(items[start:start + size])
        start += size
    return runs
