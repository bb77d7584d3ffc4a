"""Operation mixes of the paper's four workloads (ResNet-20, logistic
regression, LSTM, packed bootstrapping), priced by the workload model."""

from .base import OperationCounts, WorkloadSpec
from .catalog import (
    BOOTSTRAP_OPERATIONS,
    LOGISTIC_REGRESSION,
    LSTM,
    PACKED_BOOTSTRAPPING,
    RESNET20,
    WORKLOADS,
)

__all__ = [
    "OperationCounts",
    "WorkloadSpec",
    "RESNET20",
    "LOGISTIC_REGRESSION",
    "LSTM",
    "PACKED_BOOTSTRAPPING",
    "BOOTSTRAP_OPERATIONS",
    "WORKLOADS",
]
