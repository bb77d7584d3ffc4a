"""The executable serving-layer statistics workload (runtime traffic)."""

from .serving_statistics import (
    ClientStatistics,
    ServingStatisticsReport,
    run_serving_statistics,
)

__all__ = [
    "ClientStatistics",
    "ServingStatisticsReport",
    "run_serving_statistics",
]
