"""A yardstick for the machine: what a second of this run was worth.

The benchmark's host is a small shared VM whose speed drifts by 10 % and
more and stays put for anything from a second to minutes (measured: a fixed
dgemm, a fixed element-wise pass and a fixed interpreter loop slow down and
recover together).  Ten runs of the same B=1 program on ten seeds read with
an interquartile spread of 12-18 % in plain wall-clock, which is more than
the regressions the benchmark has to catch; read against a yardstick taken
next to every call the same runs spread by 2-3 %.

So every timed interval is read against a yardstick: a fixed piece of work
that uses nothing of the library — a dgemm, float reduction passes over
streamed and over cache-resident arrays, an interpreter loop and a
big-integer object-array product, the kinds of work the library does.  A
:class:`Speedometer` takes a *mark* (the median of three yardstick readings,
about 3 ms) right before and right after each timed call, and
:meth:`Speedometer.speed` is the median mark around an interval over
``REFERENCE_S``.  Reported times are wall-clock divided by that speed:
seconds *at reference speed*, the speed at which the yardstick takes
``REFERENCE_S``.  The unnormalised wall-clock is kept beside every figure
in the result JSON and in the printed report.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter
from typing import Callable, List

import numpy as np

__all__ = ["Speedometer", "REFERENCE_S"]

#: The yardstick's duration at reference speed: what it takes on this
#: container between a workload's calls when the host is undisturbed.
REFERENCE_S = 900e-6
#: A mark this recent is reused instead of taking another one.
_FRESH_S = 0.002
#: Marks this close to an interval's ends count as taken next to it.
_NEAR_S = 0.005


def _make_yardstick() -> Callable[[], float]:
    """The fixed work; calling it returns the seconds it took."""
    rng = np.random.default_rng(0)
    lhs, rhs = rng.random((64, 64)), rng.random((64, 2048))
    product = np.empty((64, 2048))
    streamed = [rng.random(1 << 17), rng.random(1 << 17), np.empty(1 << 17)]
    resident = [rng.random(1 << 13), rng.random(1 << 13), np.empty(1 << 13)]
    big_a = np.array([(1 << 200) + 7919 * i for i in range(300)], dtype=object)
    big_b = np.array([(1 << 199) + 104729 * i for i in range(300)], dtype=object)
    modulus = (1 << 224) - 63
    matmul = np.matmul      # the function itself: the tracer wraps the name

    def reduce_pass(x, y, out):
        np.multiply(x, y, out=out)
        np.floor(out, out=out)
        np.subtract(x, out, out=out)

    def yardstick() -> float:
        start = perf_counter()
        matmul(lhs, rhs, out=product)
        reduce_pass(*streamed)
        for _ in range(8):
            reduce_pass(*resident)
        total = 0
        for i in range(1500):
            total += i * i
        (big_a * big_b) % modulus
        return perf_counter() - start

    return yardstick


class Speedometer:
    """Time-stamped yardstick marks and the machine speed over an interval."""

    def __init__(self) -> None:
        self._yardstick = _make_yardstick()
        self.times: List[float] = []
        self.marks: List[float] = []
        for _ in range(10):     # warm: caches, allocator, specialised bytecode
            self._yardstick()

    def mark(self, min_gap: float = _FRESH_S) -> None:
        """Take a mark now, unless one was taken within ``min_gap`` seconds."""
        if self.times and perf_counter() - self.times[-1] < min_gap:
            return
        self.marks.append(statistics.median(self._yardstick() for _ in range(3)))
        self.times.append(perf_counter())

    def speed(self, start: float, end: float) -> float:
        """Median mark around ``[start, end]`` in reference units.

        1.0 is reference speed, 1.25 a machine a quarter slower.  Marks
        inside the interval and next to its ends count; an interval with
        fewer than two of those takes the nearest mark on either side.
        """
        low = bisect.bisect_left(self.times, start - _NEAR_S)
        high = bisect.bisect_right(self.times, end + _NEAR_S)
        if high - low < 2:
            low, high = max(low - 1, 0), min(high + 1, len(self.times))
        return statistics.median(self.marks[low:high]) / REFERENCE_S

    def overall(self) -> float:
        return statistics.median(self.marks) / REFERENCE_S
