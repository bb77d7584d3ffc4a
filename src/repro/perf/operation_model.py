"""Operation-level performance model (Tables VI/VIII/IX, Figures 5/11/14/15).

``OperationModel`` translates one CKKS operation (HMULT, HROTATE, RESCALE,
HADD, CMULT, plus the NTT kernel itself) into the kernel workloads of the
hierarchical reconstruction, prices them with :class:`GpuCostModel` and
reports amortised per-operation latency and the kernel-level breakdown.
The kernel composition follows Algorithms 1–6 of the paper with
NTT-domain-resident ciphertexts and the generalized (dnum) key switching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..gpu.spec import A100, GpuSpec
from .cost_model import CostModelConfig, GpuCostModel
from .kernel_workloads import (
    KernelWorkload,
    NttVariant,
    automorphism_workload,
    conv_workload,
    elementwise_workload,
    hadamard_workload,
    ntt_workload,
)

__all__ = ["ModelParameters", "OperationModel", "OPERATIONS"]

OPERATIONS = ("HMULT", "HROTATE", "RESCALE", "HADD", "CMULT")


@dataclass(frozen=True)
class ModelParameters:
    """CKKS parameters as the performance model sees them."""

    ring_degree: int
    level_count: int          # L + 1 active primes
    dnum: int = 5
    batch_size: int = 128

    @property
    def alpha(self) -> int:
        """Primes per key-switching decomposition group."""
        return math.ceil(self.level_count / self.dnum)

    @property
    def special_count(self) -> int:
        """Special primes; the GKS constraint requires K >= alpha."""
        return self.alpha

    @property
    def extended_limbs(self) -> int:
        return self.level_count + self.special_count


class OperationModel:
    """Per-operation latency and kernel breakdown for one configuration."""

    def __init__(self, parameters: ModelParameters, *, gpu: GpuSpec = A100,
                 variant: str = NttVariant.GEMM_TCU,
                 cost_config: Optional[CostModelConfig] = None,
                 batched: bool = True) -> None:
        self.parameters = parameters
        self.gpu = gpu
        self.variant = variant
        self.batched = batched
        self.cost_model = GpuCostModel(gpu, cost_config)

    # ------------------------------------------------------------------
    # Kernel composition of each operation (per single operation)
    # ------------------------------------------------------------------
    def kernel_workloads(self, operation: str) -> List[KernelWorkload]:
        """Kernel workloads of one operation (batch size 1)."""
        operation = operation.upper()
        p = self.parameters
        n = p.ring_degree
        limbs = p.level_count
        extended = p.extended_limbs
        special = p.special_count
        dnum = p.dnum
        if operation == "NTT":
            return [ntt_workload(n, 1, 1, self.variant)]
        if operation == "HADD":
            return [elementwise_workload("Ele-Add", n, limbs, 1).scaled(2)]
        if operation == "CMULT":
            return [hadamard_workload(n, limbs, 1).scaled(2),
                    elementwise_workload("Ele-Add", n, limbs, 1)]
        if operation == "RESCALE":
            return [
                ntt_workload(n, 2, 1, self.variant),                    # INTT of dropped limb (x2 comps)
                ntt_workload(n, 2, 1, self.variant),                    # NTT back after reduction
                elementwise_workload("Ele-Sub", n, limbs, 1).scaled(2),
            ]
        if operation == "HMULT":
            workloads = [
                hadamard_workload(n, limbs, 1).scaled(4),               # d0, d1 (x2), d2
                elementwise_workload("Ele-Add", n, limbs, 1).scaled(3),
                ntt_workload(n, limbs, 1, self.variant),                # INTT(d2)
            ]
            workloads.extend(self._keyswitch_workloads())
            return workloads
        if operation == "HROTATE":
            workloads = [
                automorphism_workload("FrobeniusMap", n, limbs, 1).scaled(2),
                ntt_workload(n, limbs, 1, self.variant),                # INTT of rotated c1
                elementwise_workload("Ele-Add", n, limbs, 1),
            ]
            workloads.extend(self._keyswitch_workloads())
            return workloads
        if operation == "CONJUGATE":
            workloads = [
                automorphism_workload("Conjugate", n, limbs, 1).scaled(2),
                ntt_workload(n, limbs, 1, self.variant),
                elementwise_workload("Ele-Add", n, limbs, 1),
            ]
            workloads.extend(self._keyswitch_workloads())
            return workloads
        raise ValueError("unknown operation %r" % operation)

    def _keyswitch_workloads(self) -> List[KernelWorkload]:
        """Kernels of one generalized key switch (Algorithm 1)."""
        p = self.parameters
        n = p.ring_degree
        limbs = p.level_count
        extended = p.extended_limbs
        special = p.special_count
        dnum = p.dnum
        alpha = p.alpha
        return [
            # ModUp: Conv of each slice into the extended basis, then NTT.
            conv_workload(n, alpha, extended - alpha, dnum),
            ntt_workload(n, extended, dnum, self.variant),
            # Inner product against the dnum key pairs.
            hadamard_workload(n, extended, 1).scaled(2 * dnum),
            elementwise_workload("Ele-Add", n, extended, 1).scaled(2 * max(1, dnum - 1)),
            # Back to coefficients and ModDown (Conv + Ele-Sub + scale).
            ntt_workload(n, extended, 2, self.variant),
            conv_workload(n, special, limbs, 2),
            elementwise_workload("Ele-Sub", n, limbs, 1).scaled(2),
            # Return the two components to the NTT domain.
            ntt_workload(n, limbs, 2, self.variant),
        ]

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def operation_time(self, operation: str) -> float:
        """Amortised seconds per operation (batch of ``batch_size`` ops)."""
        batch = self.parameters.batch_size if self.batched else 1
        total = 0.0
        for workload in self.kernel_workloads(operation):
            batched_workload = KernelWorkload(
                kernel=workload.kernel,
                cuda_int_ops=workload.cuda_int_ops * batch,
                tcu_macs=workload.tcu_macs * batch,
                bytes_moved=workload.bytes_moved * batch,
                launches=workload.launches,
                stall_bound=workload.stall_bound,
            )
            total += self.cost_model.kernel_time(batched_workload, batch_size=batch)
        return total / batch

    def operation_time_us(self, operation: str) -> float:
        """Amortised microseconds per operation."""
        return self.operation_time(operation) * 1e6

    def throughput_ops_per_second(self, operation: str) -> float:
        """Operations per second (the Table VIII metric)."""
        return 1.0 / self.operation_time(operation)

    # ------------------------------------------------------------------
    def kernel_breakdown(self, operation: str) -> Dict[str, float]:
        """Fraction of the operation's time spent in each kernel (Fig. 11)."""
        batch = self.parameters.batch_size if self.batched else 1
        times: Dict[str, float] = {}
        for workload in self.kernel_workloads(operation):
            batched_workload = KernelWorkload(
                kernel=workload.kernel,
                cuda_int_ops=workload.cuda_int_ops * batch,
                tcu_macs=workload.tcu_macs * batch,
                bytes_moved=workload.bytes_moved * batch,
                launches=workload.launches,
                stall_bound=workload.stall_bound,
            )
            elapsed = self.cost_model.kernel_time(batched_workload, batch_size=batch)
            times[workload.kernel] = times.get(workload.kernel, 0.0) + elapsed
        total = sum(times.values()) or 1.0
        return {kernel: elapsed / total for kernel, elapsed in sorted(times.items())}

    def all_operation_times_us(self) -> Dict[str, float]:
        """Convenience: Table VI row for this configuration."""
        return {operation: self.operation_time_us(operation) for operation in OPERATIONS}
