"""Workload descriptions: the FHE operation mix of each evaluated application.

The paper evaluates four applications (Section V): ResNet-20 inference,
HELR logistic regression, an LSTM classifier and packed bootstrapping.
Their absolute runtimes come from the operation mix they issue; this module
describes that mix.  The counts are reconstructed from the structure of the
cited implementations (layer shapes, iteration counts, BSGS parameters) —
see each workload module for the derivation — and feed the workload-level
performance model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["OperationCounts", "WorkloadSpec"]


@dataclass
class OperationCounts:
    """Counts of CKKS operations issued by (part of) a workload."""

    hmult: int = 0
    hrotate: int = 0
    rescale: int = 0
    hadd: int = 0
    cmult: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "HMULT": self.hmult,
            "HROTATE": self.hrotate,
            "RESCALE": self.rescale,
            "HADD": self.hadd,
            "CMULT": self.cmult,
        }

    def total(self) -> int:
        return self.hmult + self.hrotate + self.rescale + self.hadd + self.cmult

    def scaled(self, factor: int) -> "OperationCounts":
        return OperationCounts(
            hmult=self.hmult * factor,
            hrotate=self.hrotate * factor,
            rescale=self.rescale * factor,
            hadd=self.hadd * factor,
            cmult=self.cmult * factor,
        )


@dataclass
class WorkloadSpec:
    """A complete workload: CKKS parameters, op counts and bootstrap usage."""

    name: str
    ring_degree: int
    level_count: int
    batch_size: int
    iterations: int
    operations_per_iteration: OperationCounts
    bootstraps_per_run: int = 0
    #: Number of independent ciphertext streams processed in parallel
    #: (images, sentences, sample blocks) — the paper's packing factor.
    packed_inputs: int = 1
    description: str = ""
    dnum: int = 5

    def total_operations(self) -> OperationCounts:
        """Operation counts of one full run (excluding bootstraps)."""
        return self.operations_per_iteration.scaled(self.iterations)
