"""Timing, verification and summary helpers shared by the workloads.

A :class:`Recorder` is what a workload reports into: every call it times
goes through :meth:`Recorder.call` (or :meth:`Recorder.acall` for an
awaited serving request), every decrypted output through
:meth:`Recorder.check`.  The recorder keeps the raw intervals;
:meth:`Recorder.seconds` reads them against the machine-speed yardstick
(see yardstick.py) and :func:`summarise` turns samples into median /
quartiles / the highest percentile the sample count supports.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import THREAD_ENV_VARS
from .yardstick import Speedometer

__all__ = ["Recorder", "summarise", "percentile",
           "host_metadata", "loadavg", "peak_rss_mb"]

#: Percentiles a summary may report; the highest with >= 10 samples beyond it wins.
_PERCENTILE_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)

Interval = Tuple[float, float]


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def summarise(samples: Sequence[float]) -> Optional[dict]:
    """Median, quartiles, sample count and the highest supported percentile."""
    n = len(samples)
    if not n:
        return None
    summary = {"median": statistics.median(samples), "n": n,
               "q1": percentile(samples, 25), "q3": percentile(samples, 75)}
    supported = [q for q in _PERCENTILE_LADDER if n * (1 - q / 100.0) >= 10]
    if supported:
        summary["high_percentile"] = supported[-1]
        summary["high_value"] = percentile(samples, supported[-1])
    return summary


def loadavg() -> Optional[List[float]]:
    try:
        with open("/proc/loadavg") as handle:
            return [float(field) for field in handle.read().split()[:3]]
    except (OSError, ValueError):
        return None


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_metadata() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "platform": platform.platform(),
        "threads": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
    }


class Recorder:
    """Intervals, correctness and failure accounting of one set of rounds."""

    def __init__(self, tolerance: float, speedometer: Speedometer, *,
                 streams: int = 1, tracer=None, kernels=None) -> None:
        self.tolerance = tolerance
        self.speedometer = speedometer
        #: Ciphertexts one timed call processes (``ops/s = streams / median``).
        self.streams = streams
        self.tracer = tracer
        self.kernels = kernels
        #: ``(start, end, ciphertext operations)`` of every timed call, by kind.
        self.timed: Dict[str, List[Tuple[float, float, int]]] = defaultdict(list)
        #: One entry per program unit: the intervals whose normalised sum is
        #: its time (a round's timed calls; one interval for a pass or a
        #: session from its due time).
        self.program: List[List[Interval]] = []
        #: Program units the per-unit counts are divided by.
        self.units = 0
        self.attempted = 0
        self.failed = 0
        #: Median absolute slot error of every booked output.
        self.errors: List[float] = []
        #: Serving: every verified session (from its due time in the open
        #: loop), every engine request, the launch seconds of each traced
        #: request, and how late each session started.
        self.sessions: List[Interval] = []
        self.requests: List[Interval] = []
        self.launch_s: List[Tuple[Interval, float]] = []
        self.generator_late: List[float] = []
        self.serving: Counter = Counter()
        self.kernel_counts: Counter = Counter()
        self.limb_vectors: Counter = Counter()
        self.transfers = 0
        self._round: List[Interval] = []

    # ------------------------------------------------------------------
    @contextmanager
    def root(self, label: str) -> Iterator[None]:
        """Attribute the block to the tracer and capture its kernel counts."""
        if self.tracer is None or self.tracer.in_root:
            yield
            return
        with self.kernels.capture() as counter, self.tracer.root(label):
            yield
        self.kernel_counts.update(counter.invocations)
        self.limb_vectors.update(counter.limb_vectors)
        self.transfers += counter.transfer_total()

    def call(self, kind: str, function, *args, repeat: int = 1, **kwargs):
        """Time ``repeat`` back-to-back synchronous calls as one sample.

        Each call is ``streams`` operations; a raise counts them all failed.
        """
        operations = self.streams * repeat
        self.attempted += operations
        self.speedometer.mark()
        try:
            with self.root(kind):
                start = perf_counter()
                for _ in range(repeat):
                    result = function(*args, **kwargs)
                end = perf_counter()
        except Exception:
            self.failed += operations
            raise
        self.speedometer.mark()
        self.timed[kind].append((start, end, operations))
        self._round.append((start, end))
        return result

    async def acall(self, kind: str, awaitable):
        """Time one awaited engine request, call to result."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = await awaitable
        except Exception:
            self.failed += 1
            raise
        interval = (start, perf_counter())
        self.timed[kind].append(interval + (1,))
        self.requests.append(interval)
        if self.tracer is not None:
            launch = self.tracer.launches.pop(id(result), None)
            if launch is not None:
                self.launch_s.append((interval, launch))
        return result

    def check(self, got, expected, book: bool = True) -> None:
        """Compare a decrypted output with its plaintext reference.

        The largest absolute error is held against the tolerance: beyond
        it the output is wrong, which is one failed operation.  A workload
        books the outputs its program is for (``book``); what is kept for
        ``precision_bits`` is the output's *median* absolute slot error.
        The largest error is one slot out of thousands and moves by half a
        bit from seed to seed, and in ``lr_chain_b8`` the one slot that
        holds the score carries a data-dependent error a hundred times
        the noise in the other 2047 (3e-5 to 4e-4 over ten seeds), which
        moves a mean or a root-mean-square by three bits; the median is the
        noise floor, which is what a lossy arithmetic change raises.
        """
        difference = np.abs(np.asarray(got) - np.asarray(expected)).reshape(-1)
        worst = float(difference.max())
        if math.isnan(worst) or worst > self.tolerance:
            self.failed += 1
            print("e2e: wrong result: max abs error %.3g > tolerance %.3g"
                  % (worst, self.tolerance), file=sys.stderr)
        elif book:
            self.errors.append(float(np.median(difference)))

    def end_round(self) -> None:
        """Close a round of synchronous calls: its program time is their sum."""
        self.program.append(self._round)
        self._round = []
        self.units += 1

    def abort_round(self) -> None:
        """Drop the partial round after a raise (already counted as failed)."""
        traceback.print_exc(file=sys.stderr)
        self._round = []

    # ------------------------------------------------------------------
    def seconds(self, interval: Interval, raw: bool = False) -> float:
        """An interval's length, at reference speed unless ``raw``."""
        start, end = interval
        return (end - start) / (1.0 if raw else self.speedometer.speed(start, end))

    def per_op(self, kind: str, raw: bool = False) -> List[float]:
        """Seconds per ciphertext operation of every timed call of ``kind``."""
        return [self.seconds((start, end), raw) / operations
                for start, end, operations in self.timed[kind]]

    def program_seconds(self, raw: bool = False) -> List[float]:
        return [sum(self.seconds(interval, raw) for interval in unit)
                for unit in self.program]

    @property
    def precision_bits(self) -> float:
        """``-log2`` of the median booked output's median absolute slot error."""
        # An error of exactly zero cannot come out of approximate CKKS
        # arithmetic; the floor only keeps the logarithm defined.
        return -math.log2(max(statistics.median(self.errors), 2.0 ** -52))
