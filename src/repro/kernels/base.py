"""Kernel instrumentation: names and invocation counters.

The paper's hierarchical reconstruction (Table II) decomposes every CKKS
operation into seven reusable arithmetic kernels.  The evaluator and the
key switcher record every kernel they launch under these names, and a
:class:`KernelCounter` keeps how often each kernel ran and how many
limb-vectors it touched.  The tests use the counters to verify the Table II
composition, and the performance model uses the same kernel taxonomy.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

__all__ = ["KernelName", "KernelCounter", "KernelContext"]


class KernelName:
    """Canonical kernel identifiers (paper Table II)."""

    NTT = "NTT"
    INTT = "INTT"
    HADAMARD = "Hada-Mult"
    ELE_ADD = "Ele-Add"
    ELE_SUB = "Ele-Sub"
    FROBENIUS = "FrobeniusMap"
    CONJUGATE = "Conjugate"
    CONV = "Conv"

    ALL = (NTT, INTT, HADAMARD, ELE_ADD, ELE_SUB, FROBENIUS, CONJUGATE, CONV)


@dataclass
class KernelCounter:
    """Counts kernel invocations and the limb-vectors they touched."""

    invocations: Counter = field(default_factory=Counter)
    limb_vectors: Counter = field(default_factory=Counter)
    #: The benchmark's hook (``kernels.transfers.count``); nothing records here.
    transfers: Counter = field(default_factory=Counter)

    def record_batch(self, kernel: str, operations: int,
                     limbs_per_operation: int) -> None:
        """Record ``operations`` invocations issued as one fused launch.

        Operation-batched execution fuses many independent operations into
        a single backend launch; the counters still record one invocation
        per batched operation so the instrumentation is independent of how
        the work is fused (matching looped per-operation execution).
        """
        self.invocations[kernel] += operations
        self.limb_vectors[kernel] += operations * limbs_per_operation

    def transfer_total(self) -> int:
        """The benchmark's hook: the sum of :attr:`transfers`, always 0."""
        return sum(self.transfers.values())

    def reset(self) -> None:
        self.invocations.clear()
        self.limb_vectors.clear()
        self.transfers.clear()

    def snapshot(self) -> Dict[str, int]:
        """A plain dict copy of the invocation counts."""
        return dict(self.invocations)

    def total(self, kernel: str) -> int:
        return self.invocations.get(kernel, 0)

    def merge(self, other: "KernelCounter") -> None:
        self.invocations.update(other.invocations)
        self.limb_vectors.update(other.limb_vectors)
        self.transfers.update(other.transfers)


class KernelContext:
    """Shared state for the kernel layer: the counters of one CKKS context."""

    def __init__(self) -> None:
        self.counter = KernelCounter()

    @contextmanager
    def capture(self) -> Iterator[KernelCounter]:
        """Capture the kernels executed inside the ``with`` block.

        The captured counts are *also* accumulated into the context's main
        counter, mirroring a profiler attached to the kernel layer.
        """
        fresh = KernelCounter()
        previous = self.counter
        merged = KernelCounter()
        merged.merge(previous)
        self.counter = fresh
        try:
            yield fresh
        finally:
            merged.merge(fresh)
            self.counter = merged
