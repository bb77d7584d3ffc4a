"""Tensor-core NTT (the full *TensorFHE* kernel, paper Figure 8).

Same three-GEMM decomposition as :class:`~repro.ntt.four_step.FourStepNtt`,
but every GEMM is lowered to INT8 tensor-core arithmetic:

* **Stage 1** — segment each 32-bit operand into four u8 byte planes
  (Figure 7, :func:`repro.numtheory.bit_ops.segment_u32`);
* **Stage 2** — one u8 x u8 GEMM with an s32 accumulator per pair of
  non-zero byte planes, batched over every RNS limb;
* **Stage 3** — fuse the partial products (Booth accumulation) modulo
  each limb's prime; the Hadamard twiddle stays on the CUDA cores;
* **Stages 4–5** — the same for the outer GEMM with ``W3`` (the inverse
  twiddle carries ``N^-1``).

The u8 GEMMs are exact on float64 BLAS (every s32 partial sum is far below
2**53), so the engine is bit-identical to ``four_step``.
"""

from __future__ import annotations

import numpy as np

from ..backend.residency import DeviceBuffer
from ..numtheory.bit_ops import SEGMENT_BITS, segment_u32
from .four_step import FourStepNtt

__all__ = ["TensorCoreNtt"]

#: Longest u8 x u8 dot product an s32 accumulator holds: 33 025 * 255**2
#: is just below 2**31.
MAX_INNER = ((1 << 31) - 1) // (0xFF * 0xFF)


class TensorCoreNtt(FourStepNtt):
    """Four-step NTT whose GEMMs run as segmented INT8 tensor-core GEMMs."""

    name = "tensorcore"

    def _gemm_limbs(self, lhs: DeviceBuffer, rhs: DeviceBuffer,
                    moduli: np.ndarray) -> DeviceBuffer:
        """Limb-batched segmented GEMM ``(lhs[l] @ rhs[l]) mod moduli[l]``.

        Both 3-D operand stacks (RNS limb axis leading) are segmented into
        u8 byte planes in one shot; every pair of non-zero planes issues a
        *single* batched GEMM covering all RNS limbs — the CUTLASS
        batched-GEMM launch of the paper — and its partial product is fused
        with weight ``2**(8*(i+j))`` per limb modulus.

        Residency boundary: segmentation reads the operands as int64 host
        images — the analogue of the paper's explicit INT8 re-quantisation
        before a tensor-core launch.
        """
        lhs = lhs.ensure_host()
        rhs = rhs.ensure_host()
        if lhs.shape[2] > MAX_INNER:
            raise OverflowError(
                "s32 accumulator overflow: inner dimension %d exceeds %d "
                "for u8 operands" % (lhs.shape[2], MAX_INNER))
        column = np.asarray(moduli, dtype=np.int64).reshape(-1, 1, 1)
        lhs_planes = [(i, plane.astype(np.float64))
                      for i, plane in enumerate(segment_u32(lhs)) if plane.any()]
        rhs_planes = [(j, plane.astype(np.float64))
                      for j, plane in enumerate(segment_u32(rhs)) if plane.any()]
        fused = np.zeros((lhs.shape[0], lhs.shape[1], rhs.shape[2]),
                         dtype=np.int64)
        for i, left in lhs_planes:
            for j, right in rhs_planes:
                partial = np.matmul(left, right).astype(np.int64)
                weight = np.int64(1 << (SEGMENT_BITS * (i + j))) % column
                fused = (fused + partial % column * weight) % column
        return DeviceBuffer(host=fused)
