"""Tensor-core NTT (the full *TensorFHE* kernel, paper Figure 8).

Same three-GEMM decomposition as :class:`~repro.ntt.four_step.FourStepNtt`,
but every GEMM is lowered to the simulated Tensor Core Units:

* **Stage 1** — segment the input matrix into four u8 limb matrices
  (:func:`repro.tcu.segmentation.segment_matrix`);
* **Stage 2** — run the limb-pair GEMMs ``O_ij = W1_i @ T_j`` on the
  TCU simulator, one CUDA stream each (up to 16 concurrent GEMMs);
* **Stage 3** — fuse the partial products (Booth accumulation), Hadamard-
  multiply with ``W2`` and re-segment;
* **Stage 4** — limb-pair GEMMs with ``W3`` on the TCUs;
* **Stage 5** — fuse and reduce modulo ``q`` (plus the ``N^-1`` factor for
  the inverse transform).

The class keeps the :class:`~repro.tcu.gemm.TcuStats` counters of all GEMMs
it issued so the performance model and the benchmarks can report tensor-
core utilisation.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..backend.residency import DeviceBuffer
from ..numtheory.bit_ops import SEGMENT_COUNT, segment_u32
from ..tcu.fusion import fuse_partial_products_limbs
from ..tcu.gemm import TcuStats, TensorCoreGemm
from ..tcu.streams import StreamScheduler, StreamTask
from .four_step import FourStepNtt

__all__ = ["TensorCoreNtt"]

#: Concurrent CUDA streams the limb-pair GEMMs are scheduled on (Stage 2).
STREAM_COUNT = 16


class TensorCoreNtt(FourStepNtt):
    """Four-step NTT whose GEMMs run on the simulated INT8 tensor cores."""

    name = "tensorcore"

    def __init__(self, ring_degree: int, modulus: int, *,
                 backend=None) -> None:
        super().__init__(ring_degree, modulus, backend=backend)
        self.tcu = TensorCoreGemm()
        self.stream_scheduler = StreamScheduler(STREAM_COUNT)
        self.last_schedule = None

    # ------------------------------------------------------------------
    @property
    def stats(self) -> TcuStats:
        """Tensor-core work counters accumulated since construction."""
        return self.tcu.stats

    def reset_stats(self) -> None:
        self.tcu.stats.reset()

    # ------------------------------------------------------------------
    def _gemm_limbs(self, lhs: DeviceBuffer, rhs: DeviceBuffer,
                    moduli: np.ndarray) -> DeviceBuffer:
        """Limb-batched segmented GEMM on the simulated tensor cores.

        Both 3-D operand stacks (RNS limb axis leading) are segmented into
        u8 byte planes in one shot; every pair of non-zero byte planes then
        issues a *single* batched TCU GEMM covering all RNS limbs — the
        CUTLASS batched-GEMM launch of the paper — and the partial products
        are fused with per-limb moduli.  Hadamard products stay on the
        CUDA cores (the inherited hook), as in the paper.

        Residency boundary: the u8 segmentation is a host-side simulation
        step, so the operands are read as int64 host images here — the
        analogue of the paper's explicit INT8 re-quantisation before a
        tensor-core launch.
        """
        lhs = lhs.ensure_host()
        rhs = rhs.ensure_host()
        lhs_segments = segment_u32(lhs)
        rhs_segments = segment_u32(rhs)
        lhs_active = [s for s in range(SEGMENT_COUNT) if lhs_segments[s].any()]
        rhs_active = [s for s in range(SEGMENT_COUNT) if rhs_segments[s].any()]
        limbs = lhs.shape[0]
        inner = lhs.shape[2]
        if not lhs_active or not rhs_active:
            self.last_schedule = self.stream_scheduler.schedule([])
            return DeviceBuffer(host=np.zeros(
                (limbs, lhs.shape[1], rhs.shape[2]), dtype=np.int64))
        partials: Dict[Tuple[int, int], np.ndarray] = {}
        tasks = []
        for seg_left in lhs_active:
            for seg_right in rhs_active:
                partial = self.tcu.multiply_batch(lhs_segments[seg_left],
                                                  rhs_segments[seg_right])
                partials[(seg_left, seg_right)] = partial
                tasks.append(StreamTask(
                    name="gemm_%d_%d" % (seg_left, seg_right),
                    cost=float(limbs * partial.shape[1] * partial.shape[2] * inner),
                ))
        self.last_schedule = self.stream_scheduler.schedule(tasks)
        return DeviceBuffer(host=fuse_partial_products_limbs(partials, moduli))
