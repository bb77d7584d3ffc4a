"""Four-step GEMM NTT (Eq. 9 of the paper, the *TensorFHE-CO* kernel).

The length-N input is reshaped into an ``N1 x N2`` matrix (``N = N1*N2``)
and the negacyclic NTT becomes three small GEMM/Hadamard steps::

    B = W1 @ a_mat            # inner length-N1 negacyclic NTTs (columns)
    C = B  ⊙ W2               # Hadamard twiddle correction
    R = C @ W3                # outer length-N2 cyclic DFTs (rows)
    A[k1 + N1*k2] = R[k1, k2] # column-major flattening

This keeps the twiddle matrices at ``O(N)`` size while exposing the work
as dense GEMMs — the form the tensor-core engine then lowers to INT8.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..backend.blas_backend import FloatResidues
from ..backend.registry import get_active_backend
from ..backend.residency import DeviceBuffer, as_buffer, contiguous, is_buffer
from ..numtheory import planned
from ..numtheory.planned import (
    hadamard,
    run_slabs,
    run_stage,
    slabs,
    stage_operand,
    wide_columns,
    work_buffers,
)
from ..numtheory.modular import mat_mod_mul, modular_matmul_limbs
from .base import NttEngine
from .four_step_plan import FourStepPlan
from .twiddle import get_twiddle_stack, split_degree

__all__ = ["FourStepNtt"]


class FourStepNtt(NttEngine):
    """Three-GEMM decomposition of the negacyclic NTT (Eq. 9)."""

    name = "four_step"

    def __init__(self, ring_degree: int, modulus: int) -> None:
        super().__init__(ring_degree, modulus)
        self.n1, self.n2 = split_degree(ring_degree)

    # -- the whole (B, L, N) stack, 3 launches ---------------------------
    def _transform_ops(self, stacks, moduli_array, *, inverse: bool):
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
        stack = get_twiddle_stack(self.ring_degree, tuple(moduli_array.tolist()))
        plan = self._float_plan(stack, inverse)
        if plan is not None:
            return self._float_pipeline(stacks, stack, plan, inverse)
        # The twiddle operands are the stack's shared handles (float image
        # attached), so the launches run on handles.
        out = self._ops_pipeline(
            as_buffer(stacks), moduli_array,
            *(stack.four_step_inverse_buffers() if inverse
              else stack.four_step_forward_buffers()))
        return out if is_buffer(stacks) else out.ensure_host()

    # -- the planned float64 pipeline -----------------------------------
    def float_plan(self, moduli: Sequence[int], *,
                   inverse: bool = False) -> Optional[FourStepPlan]:
        """Which path a transform over ``moduli`` takes on this engine.

        The per-stage forms of the float64 pipeline, or ``None`` when the
        launch runs the int64 :meth:`_ops_pipeline`: this engine's GEMM or
        Hadamard hooks are overridden (the tensor-core engine lowers them
        to INT8 and must keep doing so), the active backend's
        ``capabilities()`` do not declare ``float_residency``, or the
        2**53 guard refuses a stage.  Both paths give the same bits.
        """
        stack = get_twiddle_stack(self.ring_degree, tuple(int(q) for q in moduli))
        return self._float_plan(stack, inverse)

    def _float_plan(self, stack, inverse: bool) -> Optional[FourStepPlan]:
        if (type(self)._gemm_limbs is not FourStepNtt._gemm_limbs
                or type(self)._hadamard_limbs is not FourStepNtt._hadamard_limbs):
            return None
        if not get_active_backend().capabilities().get("float_residency", False):
            return None
        return stack.four_step_plan(inverse)

    def _float_pipeline(self, stacks, stack, plan: FourStepPlan,
                        inverse: bool):
        """The transform as float64 stages, slab by slab.

        The perf shape of the paper's tensor-core kernel: the wide twiddle
        operand is cut into narrow parts whose partial products are exact
        (:mod:`repro.numtheory.planned`), both GEMMs are raw dgemms and
        every reduction is a lazy float64 Barrett pass, so no int64 ``%``
        runs.  Each slab goes through all stages while it is in cache and
        lands in the result through one merged transpose(+cast); the slabs
        run on every core (:func:`~repro.numtheory.planned.run_slabs`).

        Plain arrays come back as int64 arrays; a handle comes back as a
        float-only handle, at every width, and a float-only handle in is
        read as it is — no staging copy, no int64 anywhere in a chain.
        Only polynomials too small for that to pay
        (:data:`~repro.numtheory.planned.RESIDENT_DOUBLES`) come back int64.
        """
        backend = get_active_backend()
        batch, limbs = stacks.shape[0], stacks.shape[1]
        resident = is_buffer(stacks)
        cache = stacks.float_cache() if resident else None
        if cache is not None:
            source = cache.full()
        else:
            source = stacks.ensure_host() if resident else stacks
        source = source.reshape(batch, limbs, self.n1, self.n2)
        as_float = resident and limbs * self.ring_degree > planned.RESIDENT_DOUBLES
        # (N2, N1) per slice: the column-major flattening of forward().
        result = np.empty((batch, limbs, self.n2, self.n1),
                          dtype=np.float64 if as_float else np.int64)

        def gemm_left(image, x, out):
            return backend.fmatmul(image, x, out=out)

        def gemm_right(image, x, out):
            return backend.fmatmul(x, image, out=out)

        # Slabs are limb-major, (limbs, operations, N1, N2), so every
        # operand image gets the operation axis to broadcast along.
        stages = []
        for form, apply, operand in zip(
                plan, (gemm_left, hadamard, gemm_right),
                stack.four_step_operand_caches(inverse)):
            images, weight = stage_operand(form, operand)
            stages.append((form, apply,
                           [image[:, None] for image in images], weight))

        def slab(piece) -> None:
            ops, rows = piece
            chain = stack.barrett_chain.rows(rows)
            x = source[ops, rows].transpose(1, 0, 2, 3)
            buffers = work_buffers(*(x.shape,) * 4)
            # One operation per slab leaves the Barrett constants a run of
            # N: laid out full-width, every pass gets numpy's fast loop.
            columns = wide_columns(chain, x.shape)
            if cache is None:
                np.copyto(buffers[0], x)
                x = buffers[0]
            for form, apply, images, weight in stages:
                if len(chain.moduli) < limbs:
                    images = [image[rows] for image in images]
                x = run_stage(form, apply, images, weight, chain, x,
                              [b for b in buffers if b is not x], columns)
            spare = buffers[1] if x is buffers[0] else buffers[0]
            x = chain.lazy_reduce(x, axis=0, out=spare,       # canonical
                                  columns=columns)
            np.copyto(result[ops, rows], x.transpose(1, 0, 3, 2),
                      casting="unsafe")

        run_slabs(slab, slabs(batch, limbs, self.ring_degree))
        result = result.reshape(batch, limbs, self.ring_degree)
        if as_float:
            return DeviceBuffer.from_float(
                FloatResidues(result, stack.barrett_chain.qmax - 1))
        return DeviceBuffer.wrap(result) if resident else result

    def _ops_pipeline(self, stacks: DeviceBuffer, moduli_array: np.ndarray,
                      w1: DeviceBuffer, w2: DeviceBuffer,
                      w3: DeviceBuffer) -> DeviceBuffer:
        """The three fused launches shared by both transform directions.

        Every reshape/transpose is a resident-image view, so a handle
        batch flows through all three launches without a host copy.
        """
        batch, limbs = stacks.shape[0], stacks.shape[1]
        a_mat = stacks.reshape(batch, limbs, self.n1, self.n2)
        # One name rebound per step: each step's operand is released as
        # soon as the next exists, so the peak is two steps wide, not four.
        work = self._gemm_limbs(                            # inner NTTs
            w1,
            contiguous(a_mat.transpose(1, 2, 0, 3)).reshape(
                limbs, self.n1, batch * self.n2),
            moduli_array)
        work = self._hadamard_limbs(                        # twiddle correction
            work.reshape(limbs, self.n1, batch, self.n2),
            w2[:, :, None, :], moduli_array)
        work = contiguous(work.transpose(0, 2, 1, 3)).reshape(
            limbs, batch * self.n1, self.n2)
        work = self._gemm_limbs(work, w3, moduli_array)     # outer DFTs
        # Column-major flattening of every (N1, N2) slice, per operation.
        return contiguous(
            work.reshape(limbs, batch, self.n1, self.n2)
            .transpose(1, 0, 3, 2)).reshape(batch, limbs, self.ring_degree)

    # -- hooks the tensor-core engine overrides (handles in, handle out) --
    def _gemm_limbs(self, lhs: DeviceBuffer, rhs: DeviceBuffer,
                    moduli: np.ndarray) -> DeviceBuffer:
        """Limb-batched modular GEMM (one 3-D launch on the active backend)."""
        return modular_matmul_limbs(lhs, rhs, moduli)

    def _hadamard_limbs(self, lhs: DeviceBuffer, rhs: DeviceBuffer,
                        moduli: np.ndarray) -> DeviceBuffer:
        """Limb-batched modular Hadamard product."""
        return mat_mod_mul(lhs, rhs, moduli)
