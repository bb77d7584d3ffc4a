"""GPGPU performance-model substrate: specs, pipeline stalls, occupancy, memory."""

from .memory import MemoryTrafficModel
from .occupancy import OccupancyModel, OccupancyResult
from .pipeline import (
    BUILTIN_PROFILES,
    BUTTERFLY_NTT,
    DWT,
    FFT,
    GEMM_NTT,
    AlgorithmProfile,
    PipelineStallModel,
    StallCategory,
)
from .spec import A100, GTX1080TI, V100, GpuSpec

__all__ = [
    "GpuSpec",
    "A100",
    "V100",
    "GTX1080TI",
    "PipelineStallModel",
    "AlgorithmProfile",
    "StallCategory",
    "BUTTERFLY_NTT",
    "FFT",
    "DWT",
    "GEMM_NTT",
    "BUILTIN_PROFILES",
    "OccupancyModel",
    "OccupancyResult",
    "MemoryTrafficModel",
]
