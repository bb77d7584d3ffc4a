"""Analytical GPU cost model: kernel workloads → execution time.

Every kernel launch is modelled with a roofline: the compute time is the
arithmetic divided by the relevant peak throughput (CUDA cores for INT32
work, tensor cores for INT8 MACs) scaled by an achievable-efficiency
factor, the memory time is the traffic divided by the effective bandwidth,
and the launch overhead is added per kernel.  The achievable-efficiency
factors are the calibrated part of the model: they capture how far the
respective execution pipelines are from peak for this class of kernels and
are fitted once against the paper's measured A100 numbers (Table VI), then
reused for every experiment, GPU and parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..gpu.memory import MemoryTrafficModel
from ..gpu.spec import GpuSpec
from .kernel_workloads import KernelWorkload

__all__ = ["CostModelConfig", "GpuCostModel"]


@dataclass(frozen=True)
class CostModelConfig:
    """Calibrated efficiency constants of the cost model.

    The default values were fitted so that the modelled TensorFHE / A100
    operation latencies land close to the paper's Table VI; the same
    constants are used for every GPU and every variant (only the *peaks*
    change between GPUs), so relative comparisons are model-driven.
    """

    #: Fraction of peak INT32 throughput sustained by well-batched kernels.
    cuda_efficiency_batched: float = 0.40
    #: Fraction of peak INT32 throughput without operation batching
    #: (Figure 5: occupancy stays below ~15%).
    cuda_efficiency_unbatched: float = 0.055
    #: Extra derating applied to butterfly-style kernels: the RAW-stall and
    #: modulo overheads of Figure 4 (43% stalled cycles) that the GEMM
    #: formulations avoid.
    butterfly_stall_derating: float = 0.55
    #: Fraction of peak tensor-core INT8 throughput sustained by the
    #: segmented NTT GEMMs (CUTLASS with 16 concurrent streams).
    tcu_efficiency: float = 0.78
    #: Fraction of peak DRAM bandwidth for streaming, layout-optimised access.
    bandwidth_efficiency: float = 0.85
    #: Fixed overhead per kernel launch (seconds).
    launch_overhead_s: float = 4.0e-6
    #: Batch size beyond which kernels count as fully batched.
    batching_threshold: int = 16


class GpuCostModel:
    """Roofline-style kernel timing for one GPU."""

    def __init__(self, gpu: GpuSpec,
                 config: Optional[CostModelConfig] = None) -> None:
        self.gpu = gpu
        self.config = config or CostModelConfig()
        self.memory_model = MemoryTrafficModel(gpu)

    # ------------------------------------------------------------------
    def kernel_time(self, workload: KernelWorkload, *, batch_size: int = 1,
                    contiguous_bytes: Optional[float] = None) -> float:
        """Seconds needed to execute ``workload`` on this GPU."""
        config = self.config
        batched = batch_size >= config.batching_threshold
        cuda_eff = (config.cuda_efficiency_batched if batched
                    else config.cuda_efficiency_unbatched)
        if workload.stall_bound:
            cuda_eff *= config.butterfly_stall_derating

        compute_time = 0.0
        if workload.cuda_int_ops:
            compute_time += workload.cuda_int_ops / (
                self.gpu.peak_int32_ops_per_second * cuda_eff)
        if workload.tcu_macs:
            if self.gpu.peak_tensor_int8_macs_per_second <= 0:
                raise ValueError(
                    "%s has no tensor cores; use a CUDA-core NTT variant" % self.gpu.name)
            compute_time += workload.tcu_macs / (
                self.gpu.peak_tensor_int8_macs_per_second * config.tcu_efficiency)

        if contiguous_bytes is None:
            bandwidth = (self.gpu.memory_bandwidth_bytes_per_second
                         * config.bandwidth_efficiency)
            memory_time = workload.bytes_moved / bandwidth if workload.bytes_moved else 0.0
        else:
            memory_time = self.memory_model.transfer_time(workload.bytes_moved,
                                                          contiguous_bytes)

        overhead = workload.launches * config.launch_overhead_s
        return max(compute_time, memory_time) + overhead
