"""GPU hardware descriptions used by the performance model.

The paper evaluates on an NVIDIA A100-SXM-40GB, re-runs on a V100 for a
like-for-like comparison with 100x [33], and uses a GTX 1080Ti model inside
GPGPUSim for the stall study.  :class:`GpuSpec` captures the throughput and
capacity numbers of those parts that the analytical cost model needs; the
values are the public datasheet figures.
"""

from __future__ import annotations

from dataclasses import dataclass
__all__ = ["GpuSpec", "A100", "V100", "GTX1080TI"]


@dataclass(frozen=True)
class GpuSpec:
    """Peak capabilities of one GPU."""

    name: str
    sm_count: int
    cuda_cores_per_sm: int
    tensor_cores_per_sm: int
    boost_clock_ghz: float
    memory_bandwidth_gbps: float            # GB/s
    vram_gb: float
    max_threads_per_sm: int
    #: INT32 operations per CUDA core per cycle (MAD counted as one).
    int32_ops_per_core_per_cycle: float
    #: INT8 MAC operations per tensor core per cycle.
    int8_macs_per_tensor_core_per_cycle: float
    tdp_watts: float

    # ------------------------------------------------------------------
    @property
    def cuda_core_count(self) -> int:
        return self.sm_count * self.cuda_cores_per_sm

    @property
    def tensor_core_count(self) -> int:
        return self.sm_count * self.tensor_cores_per_sm

    @property
    def peak_int32_ops_per_second(self) -> float:
        """Peak INT32 throughput of the CUDA cores (ops/s)."""
        return (self.cuda_core_count * self.int32_ops_per_core_per_cycle
                * self.boost_clock_ghz * 1e9)

    @property
    def peak_tensor_int8_macs_per_second(self) -> float:
        """Peak INT8 MAC throughput of the tensor cores (MACs/s)."""
        return (self.tensor_core_count * self.int8_macs_per_tensor_core_per_cycle
                * self.boost_clock_ghz * 1e9)

    @property
    def memory_bandwidth_bytes_per_second(self) -> float:
        return self.memory_bandwidth_gbps * 1e9

    @property
    def vram_bytes(self) -> float:
        return self.vram_gb * (1 << 30)

    @property
    def max_resident_threads(self) -> int:
        return self.sm_count * self.max_threads_per_sm


#: NVIDIA A100-SXM-40GB (Ampere).  624 TOPS INT8 on tensor cores.
A100 = GpuSpec(
    name="A100",
    sm_count=108,
    cuda_cores_per_sm=64,
    tensor_cores_per_sm=4,
    boost_clock_ghz=1.41,
    memory_bandwidth_gbps=1555.0,
    vram_gb=40.0,
    max_threads_per_sm=2048,
    int32_ops_per_core_per_cycle=1.0,
    int8_macs_per_tensor_core_per_cycle=1024.0,
    tdp_watts=400.0,
)

#: NVIDIA Tesla V100 (Volta), 16 GB variant used by 100x and PrivFT.
V100 = GpuSpec(
    name="V100",
    sm_count=80,
    cuda_cores_per_sm=64,
    tensor_cores_per_sm=8,
    boost_clock_ghz=1.53,
    memory_bandwidth_gbps=900.0,
    vram_gb=16.0,
    max_threads_per_sm=2048,
    int32_ops_per_core_per_cycle=1.0,
    int8_macs_per_tensor_core_per_cycle=128.0,
    tdp_watts=300.0,
)

#: GTX 1080Ti (Pascal) — the GPGPUSim target of the stall study; no tensor cores.
GTX1080TI = GpuSpec(
    name="GTX1080Ti",
    sm_count=28,
    cuda_cores_per_sm=128,
    tensor_cores_per_sm=0,
    boost_clock_ghz=1.58,
    memory_bandwidth_gbps=484.0,
    vram_gb=11.0,
    max_threads_per_sm=2048,
    int32_ops_per_core_per_cycle=1.0,
    int8_macs_per_tensor_core_per_cycle=0.0,
    tdp_watts=250.0,
)
