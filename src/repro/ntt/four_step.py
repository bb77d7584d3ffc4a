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
from ..backend.registry import resolve_backend
from ..backend.residency import DeviceBuffer, contiguous, is_buffer
from ..numtheory.modular import mat_mod_mul
from .base import NttEngine
from .gemm_utils import (
    modular_hadamard,
    modular_hadamard_limbs,
    modular_matmul,
    modular_matmul_limbs,
)
from .twiddle import TwiddleCache, get_twiddle_cache, get_twiddle_stack

__all__ = ["FourStepNtt"]


class FourStepNtt(NttEngine):
    """Three-GEMM decomposition of the negacyclic NTT (Eq. 9)."""

    name = "four_step"

    def __init__(self, ring_degree: int, modulus: int,
                 twiddles: Optional[TwiddleCache] = None, *,
                 backend=None) -> None:
        super().__init__(ring_degree, modulus, backend=backend)
        self.twiddles = twiddles or get_twiddle_cache(ring_degree, modulus)
        self.n1, self.n2 = self.twiddles.four_step_shapes()
        # Shape-matched scratch for the float-resident ops pipeline (see
        # _float_scratch); built lazily, replaced when the shape changes.
        self._float_buffers = None

    # -- forward -------------------------------------------------------
    def forward(self, coefficients: np.ndarray) -> np.ndarray:
        coefficients = self._validate(coefficients)
        a_mat = coefficients.reshape(self.n1, self.n2)
        w1, w2, w3 = self.twiddles.four_step_forward()
        inner = self._gemm(w1, a_mat)
        twisted = self._hadamard(inner, w2)
        outer = self._gemm(twisted, w3)
        # Output index is k1 + N1*k2, i.e. column-major flattening.
        return outer.flatten(order="F")

    # -- inverse -------------------------------------------------------
    def inverse(self, values: np.ndarray) -> np.ndarray:
        values = self._validate(values)
        a_mat = values.reshape(self.n1, self.n2)
        v1, v2, v3 = self.twiddles.four_step_inverse()
        inner = self._gemm(v1, a_mat)
        twisted = self._hadamard(inner, v2)
        outer = self._gemm(twisted, v3)
        flattened = outer.flatten(order="F")
        return (flattened * self.twiddles.degree_inverse) % self.modulus

    # -- limb-batched path: the whole RNS polynomial in three launches --
    # Residency-handle inputs pick the stack's resident operand handles
    # and keep every reshape/transpose on the resident image, so both
    # transform directions thread handles end-to-end.
    def forward_limbs(self, residues: np.ndarray,
                      moduli: Sequence[int]) -> np.ndarray:
        """Forward NTT of all limbs via batched three-GEMM decomposition.

        The per-modulus ``W1/W2/W3`` operands are stacked along the limb
        axis (cached per ``(N, moduli)``), so each of the three steps is a
        single 3-D ``matmul``/Hadamard launch over every limb at once.
        """
        residues, moduli_array = self._validate_limbs(residues, moduli)
        residues = self._stage_resident(residues)
        stack = get_twiddle_stack(self.ring_degree, tuple(int(q) for q in moduli))
        if is_buffer(residues):
            w1, w2, w3 = stack.four_step_forward_buffers()
        else:
            w1, w2, w3 = stack.four_step_forward()
        w1_cache, w3_cache = stack.four_step_forward_caches()
        limbs = residues.shape[0]
        a_mat = residues.reshape(limbs, self.n1, self.n2)
        inner = self._gemm_limbs(w1, a_mat, moduli_array, lhs_cache=w1_cache)
        twisted = self._hadamard_limbs(inner, w2, moduli_array)
        outer = self._gemm_limbs(twisted, w3, moduli_array, rhs_cache=w3_cache)
        # Column-major flattening of every (N1, N2) slice, as in forward().
        return outer.transpose(0, 2, 1).reshape(limbs, self.ring_degree)

    def inverse_limbs(self, values: np.ndarray,
                      moduli: Sequence[int]) -> np.ndarray:
        """Inverse NTT of all limbs via batched three-GEMM decomposition."""
        values, moduli_array = self._validate_limbs(values, moduli)
        values = self._stage_resident(values)
        stack = get_twiddle_stack(self.ring_degree, tuple(int(q) for q in moduli))
        if is_buffer(values):
            v1, v2, v3 = stack.four_step_inverse_buffers()
        else:
            v1, v2, v3 = stack.four_step_inverse()
        v1_cache, v3_cache = stack.four_step_inverse_caches()
        limbs = values.shape[0]
        a_mat = values.reshape(limbs, self.n1, self.n2)
        inner = self._gemm_limbs(v1, a_mat, moduli_array, lhs_cache=v1_cache)
        twisted = self._hadamard_limbs(inner, v2, moduli_array)
        outer = self._gemm_limbs(twisted, v3, moduli_array, rhs_cache=v3_cache)
        flattened = outer.transpose(0, 2, 1).reshape(limbs, self.ring_degree)
        # Funnel multiply: exact even for moduli whose residue products
        # overflow int64 (the funnel's object-dtype path covers >= 2**31).
        return mat_mod_mul(flattened, stack.degree_inverse_column, moduli_array)

    # -- operation-batched path: the whole (B, L, N) stack, 3 launches --
    def forward_ops(self, stacks: np.ndarray,
                    moduli: Sequence[int]) -> np.ndarray:
        """Forward NTT of a ``(B, L, N)`` stack in three fused launches.

        The operation axis folds into the free dimension of each GEMM: the
        inner NTT runs on ``(limbs, N1, B*N2)`` operands, the Hadamard
        twiddle broadcasts across the batch (a zero-copy ``(limbs, N1, 1,
        N2)`` view — no per-batch operand is materialised), and the outer
        DFT folds the batch into its row dimension — so every transform
        step is one backend launch covering all ``B`` operations and all
        limbs.
        """
        stacks, moduli_array = self._validate_ops(stacks, moduli)
        stacks = self._stage_resident(stacks)
        stack = get_twiddle_stack(self.ring_degree, tuple(int(q) for q in moduli))
        fused = self._float_ops_pipeline(stacks, stack, inverse=False)
        if fused is not None:
            return fused
        if is_buffer(stacks):
            w1, w2, w3 = stack.four_step_forward_buffers()
        else:
            w1, w2, w3 = stack.four_step_forward()
        w1_cache, w3_cache = stack.four_step_forward_caches()
        return self._ops_pipeline(stacks, moduli_array, w1, w2, w3,
                                  w1_cache, w3_cache)

    def inverse_ops(self, stacks: np.ndarray,
                    moduli: Sequence[int]) -> np.ndarray:
        """Inverse NTT of a ``(B, L, N)`` stack in three fused launches."""
        stacks, moduli_array = self._validate_ops(stacks, moduli)
        if stacks.shape[0] == 0:
            return stacks
        stacks = self._stage_resident(stacks)
        stack = get_twiddle_stack(self.ring_degree, tuple(int(q) for q in moduli))
        fused = self._float_ops_pipeline(stacks, stack, inverse=True)
        if fused is not None:
            return fused
        if is_buffer(stacks):
            v1, v2, v3 = stack.four_step_inverse_buffers()
        else:
            v1, v2, v3 = stack.four_step_inverse()
        v1_cache, v3_cache = stack.four_step_inverse_caches()
        flattened = self._ops_pipeline(stacks, moduli_array, v1, v2, v3,
                                       v1_cache, v3_cache)
        batch, limbs = flattened.shape[0], flattened.shape[1]
        # Funnel multiply: exact even for moduli whose residue products
        # overflow int64 (the funnel's object-dtype path covers >= 2**31).
        scaled = mat_mod_mul(
            flattened.reshape(batch * limbs, self.ring_degree),
            np.tile(stack.degree_inverse_column, (batch, 1)),
            np.tile(moduli_array, batch))
        return scaled.reshape(batch, limbs, self.ring_degree)

    def _float_scratch(self, shape):
        """Three reusable float64 buffers of ``shape`` (input, ping, pong).

        The float pipeline's temporaries are tens of MB at production
        shapes; faulting them in fresh per transform costs more than the
        reduction arithmetic itself, so one shape-matched set lives on the
        engine and is ping-ponged through.  Results that escape to the
        caller are always fresh copies, never views of these buffers.
        """
        cached = self._float_buffers
        if cached is None or cached[0].shape != shape:
            cached = tuple(np.empty(shape, dtype=np.float64)
                           for _ in range(3))
            self._float_buffers = cached
        return cached

    def _float_ops_pipeline(self, stacks, stack, *, inverse: bool):
        """Float64-resident three-launch pipeline, or None when ineligible.

        The perf shape of the paper's tensor-core kernel: both GEMMs run as
        raw dgemms on the ``(B, limbs, N1, N2)`` layout (a broadcast
        ``matmul`` — no batch transpose, no contiguous copy between steps)
        and every intermediate modular reduction is a lazy float64 Barrett
        pass (:mod:`repro.numtheory.floatmod`) ping-ponged between two
        buffers, so nothing int64 is materialised until the very end — and
        for residency-handle inputs not even then: the result is a
        float-resident handle whose int64 image is built lazily at the
        host boundary.

        Eligibility: the resolved backend's ``capabilities()`` report
        declares ``float_residency``, this engine's GEMM/Hadamard hooks
        are not overridden (the tensor-core engine lowers them to INT8 and
        must keep doing so), and the whole transform fits the 2**53
        exactness guard.  Any miss returns None and the caller runs the
        exact int64 pipeline — bit-identical either way.
        """
        if (type(self)._gemm_limbs is not FourStepNtt._gemm_limbs
                or type(self)._hadamard_limbs is not FourStepNtt._hadamard_limbs):
            return None
        backend = resolve_backend(self.backend)
        if not backend.capabilities().get("float_residency", False):
            return None
        chain = stack.barrett_chain
        q = chain.qmax
        # Largest intermediate: the inner GEMM on canonical operands, the
        # Hadamard on lazy residues (|x| <= 2q), or the outer GEMM on lazy
        # residues; the inverse path's degree-inverse multiply on a lazy
        # residue is bounded by 2q*(q-1) and already covered.
        bound = max(self.n1 * (q - 1) ** 2, 2 * self.n2 * q * (q - 1))
        if not chain.fits(bound):
            return None
        batch, limbs = stacks.shape[0], stacks.shape[1]
        if batch == 0:
            return None
        if inverse:
            g1_cache, g3_cache = stack.four_step_inverse_caches()
            g2f = stack.four_step_inverse_hadamard_cache().full()
        else:
            g1_cache, g3_cache = stack.four_step_forward_caches()
            g2f = stack.four_step_forward_hadamard_cache().full()
        # Scratch reuse: three shape-matched float64 buffers live on the
        # engine between calls.  Freshly mmapped 10s-of-MB temporaries cost
        # more in page faults than the arithmetic they hold at these
        # shapes, so the pipeline ping-pongs through warm buffers instead
        # (results handed to the caller are always fresh copies below).
        shape = (batch, limbs, self.n1, self.n2)
        conv, work_a, work_b = self._float_scratch(shape)
        a_f = None
        if is_buffer(stacks):
            cache = stacks.float_cache()
            if cache is not None:
                a_f = cache.full().reshape(shape)
        if a_f is None:
            host = (stacks.ensure_host() if is_buffer(stacks)
                    else stacks)
            np.copyto(conv.reshape(batch, limbs, self.ring_degree), host,
                      casting="unsafe")
            a_f = conv
        # GEMM 1 (inner NTTs), lazy-reduced into the ping-pong buffer.
        backend.fmatmul(g1_cache.full()[None], a_f, out=work_a)
        lazy = chain.lazy_reduce(work_a, axis=1, out=work_b)
        # Hadamard twiddle on lazy residues (broadcast over the batch).
        np.multiply(lazy, g2f[None], out=work_a)
        lazy = chain.lazy_reduce(work_a, axis=1, out=work_b)
        # GEMM 2 (outer DFTs) and canonicalisation.  ``conv`` is free again
        # (the converted input is only read by GEMM 1), so it takes the
        # outer product.
        outer = backend.fmatmul(lazy, g3_cache.full()[None], out=conv)
        if inverse:
            # Fold the degree-inverse multiply into the reduction chain:
            # one lazy pass confines the residues, the scalar multiply
            # stays within the guard, and the canonical passes finish.
            lazy = chain.lazy_reduce(outer, axis=1, out=work_a)
            np.multiply(
                lazy, stack.degree_inverse_float.reshape(1, limbs, 1, 1),
                out=outer)
        result = chain.canonical_reduce(outer, axis=1, out=outer,
                                        scratch=work_a)
        # Column-major flattening of every (N1, N2) slice, per operation.
        flat = result.transpose(0, 1, 3, 2)
        if is_buffer(stacks):
            values = np.ascontiguousarray(flat).reshape(
                batch, limbs, self.ring_degree)
            return DeviceBuffer.from_float(FloatResidues(values, q - 1))
        # Merged transpose + cast: one pass writes the int64 output.
        out = np.empty(flat.shape, dtype=np.int64)
        np.copyto(out, flat, casting="unsafe")
        return out.reshape(batch, limbs, self.ring_degree)

    def _ops_pipeline(self, stacks: np.ndarray, moduli_array: np.ndarray,
                      w1: np.ndarray, w2: np.ndarray, w3: np.ndarray,
                      w1_cache, w3_cache) -> np.ndarray:
        """The three fused launches shared by both transform directions.

        Works uniformly on host arrays and residency handles: every
        reshape/transpose is a resident-image view, so a handle batch
        flows through all three launches without a host copy.
        """
        # Stage the shared Hadamard-twiddle handle before slicing it: the
        # broadcast view below is a fresh handle per call, so the upload
        # must land on the cached parent (w1/w3 go through the funnel
        # whole and stage themselves).
        w2 = self._stage_resident(w2)
        batch, limbs = stacks.shape[0], stacks.shape[1]
        a_mat = stacks.reshape(batch, limbs, self.n1, self.n2)
        # One name rebound per step: each step's operand is released as
        # soon as the next exists, so the peak is two steps wide, not four.
        work = self._gemm_limbs(                            # inner NTTs
            w1,
            contiguous(a_mat.transpose(1, 2, 0, 3)).reshape(
                limbs, self.n1, batch * self.n2),
            moduli_array, lhs_cache=w1_cache)
        work = self._hadamard_limbs(                        # twiddle correction
            work.reshape(limbs, self.n1, batch, self.n2),
            w2[:, :, None, :], moduli_array)
        work = contiguous(work.transpose(0, 2, 1, 3)).reshape(
            limbs, batch * self.n1, self.n2)
        work = self._gemm_limbs(work, w3, moduli_array,     # outer DFTs
                                rhs_cache=w3_cache)
        # Column-major flattening of every (N1, N2) slice, per operation.
        return contiguous(
            work.reshape(limbs, batch, self.n1, self.n2)
            .transpose(1, 0, 3, 2)).reshape(batch, limbs, self.ring_degree)

    # -- hooks the tensor-core engine overrides -------------------------
    def _gemm(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Modular GEMM on the "CUDA cores" (active backend)."""
        return modular_matmul(lhs, rhs, self.modulus, backend=self.backend)

    def _hadamard(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Modular Hadamard product on the CUDA cores."""
        return modular_hadamard(lhs, rhs, self.modulus, backend=self.backend)

    def _gemm_limbs(self, lhs: np.ndarray, rhs: np.ndarray,
                    moduli: np.ndarray, *, lhs_cache=None,
                    rhs_cache=None) -> np.ndarray:
        """Limb-batched modular GEMM (one 3-D launch on the active backend)."""
        return modular_matmul_limbs(lhs, rhs, moduli,
                                    lhs_cache=lhs_cache, rhs_cache=rhs_cache,
                                    backend=self.backend)

    def _hadamard_limbs(self, lhs: np.ndarray, rhs: np.ndarray,
                        moduli: np.ndarray) -> np.ndarray:
        """Limb-batched modular Hadamard product."""
        return modular_hadamard_limbs(lhs, rhs, moduli, backend=self.backend)
