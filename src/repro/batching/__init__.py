"""Operation-level batching: batch-size planning for the fused launches."""

from .scheduler import BatchPlan, BatchScheduler

__all__ = [
    "BatchScheduler",
    "BatchPlan",
]
