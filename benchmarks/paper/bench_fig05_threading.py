"""Figure 5: GPU occupancy and execution time vs total thread count (no batching)."""

from repro.gpu import A100, OccupancyModel
from repro.perf import format_table

THREAD_COUNTS = (8192, 16384, 32768)
WORK_ELEMENTS = 1 << 17


def _sweep():
    model = OccupancyModel(A100)
    return {threads: model.occupancy_for_threads(threads, work_elements=WORK_ELEMENTS)
            for threads in THREAD_COUNTS}


def test_fig05_threading(benchmark):
    results = benchmark(_sweep)
    rows = [[threads, result.occupancy_percent, result.normalized_time]
            for threads, result in results.items()]
    print()
    print(format_table(["threads", "occupancy %", "norm. time"], rows,
                       title="Figure 5 — threading sweep (unbatched CKKS kernel)"))
    print("paper: best occupancy < 15%, 16K beats 8K, 32K degrades")

    # Shape: occupancy stays low without batching; 16K is the sweet spot.
    assert all(result.occupancy_percent < 20.0 for result in results.values())
    assert results[16384].normalized_time < results[8192].normalized_time
    assert results[32768].normalized_time > results[16384].normalized_time
