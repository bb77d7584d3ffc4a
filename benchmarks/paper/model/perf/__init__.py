"""Performance and energy models plus the literature baselines."""

from .cost_model import CostModelConfig, GpuCostModel
from .energy import EnergyModel
from .kernel_workloads import (
    KernelWorkload,
    NttVariant,
    automorphism_workload,
    conv_workload,
    elementwise_workload,
    hadamard_workload,
    ntt_workload,
)
from .operation_model import OPERATIONS, ModelParameters, OperationModel
from .report import format_comparison, format_table, ratio
from .workload_model import WorkloadModel, WorkloadTimings
from . import literature

__all__ = [
    "KernelWorkload",
    "NttVariant",
    "ntt_workload",
    "hadamard_workload",
    "elementwise_workload",
    "automorphism_workload",
    "conv_workload",
    "CostModelConfig",
    "GpuCostModel",
    "ModelParameters",
    "OperationModel",
    "OPERATIONS",
    "WorkloadModel",
    "WorkloadTimings",
    "EnergyModel",
    "literature",
    "format_table",
    "format_comparison",
    "ratio",
]
