"""Four-step GEMM NTT (Eq. 9 of the paper, the *TensorFHE-CO* kernel).

The length-N input is reshaped into an ``N1 x N2`` matrix (``N = N1*N2``)
and the negacyclic NTT becomes three small GEMM/Hadamard steps::

    B = W1 @ a_mat            # inner length-N1 negacyclic NTTs (columns)
    C = B  ⊙ W2               # Hadamard twiddle correction
    R = C @ W3                # outer length-N2 cyclic DFTs (rows)
    A[k1 + N1*k2] = R[k1, k2] # column-major flattening

This keeps the twiddle matrices at ``O(N)`` size while exposing the work
as dense GEMMs.  On a float backend the three steps run as planned
float64 stages (:mod:`repro.ntt.four_step_plan`), each operand cut into
as many parts as its width needs — the paper's Fig. 7 segmentation, with
the part count chosen by the 2**53 guard.  The int64 pipeline is the
numpy oracle's path and the fallback for widths no rung admits.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..backend.registry import get_active_backend
from ..backend.residency import CANONICAL, HOST, LAZY, DeviceBuffer
from ..numtheory.planned import run_slabs, run_stage, work_buffers
from ..numtheory.modular import mat_mod_mul, modular_matmul_limbs
from .base import NttEngine
from .four_step_plan import FourStepPlan, LaunchRecipe, SlabRecipe
from .twiddle import get_twiddle_stack, split_degree

__all__ = ["FourStepNtt"]


class FourStepNtt(NttEngine):
    """Three-GEMM decomposition of the negacyclic NTT (Eq. 9)."""

    name = "four_step"

    def __init__(self, ring_degree: int) -> None:
        super().__init__(ring_degree)
        self.n1, self.n2 = split_degree(ring_degree)

    # -- the whole (B, L, N) stack, 3 launches ---------------------------
    def _transform_ops(self, stacks, moduli, *, inverse: bool):
        """Either direction on a validated, staged ``(B, L, N)`` stack.

        On a float-capable backend the launch runs the planned float64
        pipeline (:meth:`float_plan`) whenever the 2**53 guard admits the
        chain.  Otherwise the operation axis folds into the free dimension
        of each int64 modular GEMM: the inner NTT runs on ``(limbs, N1,
        B*N2)`` operands, the Hadamard twiddle broadcasts across the batch
        (a zero-copy ``(limbs, N1, 1, N2)`` view — no per-batch operand is
        materialised), and the outer DFT folds the batch into its row
        dimension — so every transform step is one backend launch covering
        all ``B`` operations and all limbs.  The inverse twiddle carries
        ``N^-1``, so both directions are the same three steps.
        """
        stack = get_twiddle_stack(self.ring_degree, moduli)
        backend = get_active_backend()
        if backend.float_residency:
            recipe = stack.launch_recipe(backend, inverse, stacks.shape[0],
                                         stacks.window)
            if recipe is not None:
                return self._float_pipeline(stacks, recipe)
        return self._ops_pipeline(stacks, moduli, *stack.operands(inverse))

    # -- the planned float64 pipeline -----------------------------------
    def float_plan(self, moduli: Sequence[int], *, inverse: bool = False,
                   window=CANONICAL) -> Optional[FourStepPlan]:
        """Which path a transform over ``moduli`` takes on this engine.

        The per-stage forms of the float64 pipeline for an input in
        ``window`` (canonical residues, or a lazy handle's window), or
        ``None`` when the launch runs the int64 :meth:`_ops_pipeline`: the
        active backend does not declare ``float_residency``, or the 2**53
        guard refuses a stage.  Both paths give the same bits.
        """
        if not get_active_backend().float_residency:
            return None
        stack = get_twiddle_stack(self.ring_degree, tuple(int(q) for q in moduli))
        return stack.four_step_plan(inverse, window)

    def _float_pipeline(self, stacks: DeviceBuffer,
                        recipe: LaunchRecipe) -> DeviceBuffer:
        """The transform as float64 stages, run from its launch recipe.

        The perf shape of the paper's tensor-core kernel: the wide twiddle
        operand is cut into narrow parts whose partial products are exact
        (:mod:`repro.numtheory.planned`), both GEMMs are raw dgemms and
        every reduction is a lazy float64 Barrett pass, so no int64 ``%``
        runs.  Each slab goes through all stages while it is in cache and
        lands in the result through one merged transpose(+cast); the slabs
        run on every core (:func:`~repro.numtheory.planned.run_slabs`), a
        launch of one slab inline.  Everything but the data — forms, images
        viewed per slab, Barrett rows, full-width constants — comes laid
        out from the recipe (:class:`~repro.ntt.four_step_plan.
        LaunchRecipe`), so a launch only issues numpy calls; the twiddle
        stage is one broadcast multiply per image below
        :data:`~repro.numtheory.planned.BROADCAST_RUN` coefficients and one
        per operation from there on (:func:`~repro.numtheory.planned.
        hadamard`).

        The result is a float-only handle of lazy residues at every width,
        and a handle with a float image is read as it is, lazy or not — no
        staging copy, no int64 anywhere in a chain.  Only polynomials too
        small for that to pay
        (:data:`~repro.numtheory.planned.RESIDENT_DOUBLES`) on a short ring
        (below :data:`~repro.numtheory.planned.RESIDENT_RING_DEGREE`) come
        back as int64 host handles, made canonical by one more pass as
        they are cast.
        """
        batch, limbs = stacks.shape[0], stacks.shape[1]
        imaged = stacks.kind != HOST
        source = (stacks.full() if imaged else stacks.ensure_host()).reshape(
            batch, limbs, self.n1, self.n2)
        # (N2, N1) per slice: the column-major flattening of forward().
        result = np.empty((batch, limbs, self.n2, self.n1),
                          dtype=np.float64 if recipe.as_float else np.int64)
        run_slabs(_run_slab, recipe.slabs, source, result, imaged,
                  recipe.as_float)
        result = result.reshape(batch, limbs, self.ring_degree)
        if recipe.as_float:
            return DeviceBuffer.from_float(result, recipe.bound, LAZY)
        return DeviceBuffer.from_kernel(result)

    def _ops_pipeline(self, stacks: DeviceBuffer, moduli: Tuple[int, ...],
                      w1: DeviceBuffer, w2: DeviceBuffer,
                      w3: DeviceBuffer) -> DeviceBuffer:
        """The int64 pipeline: three fused launches, either direction.

        The numpy backend's path, and a float backend's for a chain whose
        width no rung admits (:meth:`float_plan` is ``None``).  Every
        reshape/transpose is a resident-image view, so a handle batch flows
        through all three launches without a host copy.
        """
        batch, limbs = stacks.shape[0], stacks.shape[1]
        a_mat = stacks.reshape(batch, limbs, self.n1, self.n2)
        # One name rebound per step: each step's operand is released as
        # soon as the next exists, so the peak is two steps wide, not four.
        work = modular_matmul_limbs(                        # inner NTTs
            w1,
            a_mat.transpose(1, 2, 0, 3).ascontiguous().reshape(
                limbs, self.n1, batch * self.n2),
            moduli)
        work = mat_mod_mul(                                 # twiddle correction
            work.reshape(limbs, self.n1, batch, self.n2),
            w2[:, :, None, :], moduli)
        work = work.transpose(0, 2, 1, 3).ascontiguous().reshape(
            limbs, batch * self.n1, self.n2)
        work = modular_matmul_limbs(work, w3, moduli)       # outer DFTs
        # Column-major flattening of every (N1, N2) slice, per operation.
        return (work.reshape(limbs, batch, self.n1, self.n2)
                .transpose(1, 0, 3, 2).ascontiguous()
                .reshape(batch, limbs, self.ring_degree))


def _run_slab(piece: SlabRecipe, source: np.ndarray, result: np.ndarray,
              imaged: bool, as_float: bool) -> None:
    """All three stages of one slab, from ``source`` into ``result``
    (lazy; an int64 one canonical, by one more pass as it is cast)."""
    ops, rows, chain = piece.ops, piece.rows, piece.chain
    x = source[ops, rows].transpose(1, 0, 2, 3)
    buffers = work_buffers(*piece.buffers)
    columns = chain.wide_columns(piece.buffers[0])
    if not imaged:
        buffers[0][...] = x
        x = buffers[0]
    for form, apply, images, weight in piece.stages:
        x = run_stage(form, apply, images, weight, chain, x,
                      [b for b in buffers if b is not x], columns)
    if not as_float:
        spare = buffers[1] if x is buffers[0] else buffers[0]
        x = chain.lazy_reduce(x, axis=0, out=spare,             # canonical
                              columns=columns)
    result[ops, rows] = x.transpose(1, 0, 3, 2)      # cast as it is copied
