"""Figure 14: sensitivity to the operation-level batch size (plus a layout ablation)."""

from repro.gpu import A100, MemoryTrafficModel
from repro.perf import ModelParameters, OperationModel, format_table

BATCH_SIZES = (32, 64, 128, 256, 512, 1024)
KERNEL_OPERATIONS = ("HADD", "CMULT", "HROTATE", "HMULT")


def _sweep():
    times = {}
    for batch in BATCH_SIZES:
        parameters = ModelParameters(ring_degree=1 << 16, level_count=45,
                                     dnum=5, batch_size=batch)
        model = OperationModel(parameters, gpu=A100)
        times[batch] = {op: model.operation_time_us(op) for op in KERNEL_OPERATIONS}
    return times


def test_fig14_batch_size(benchmark):
    times = benchmark(_sweep)
    baseline = times[128]
    rows = [[batch] + [times[batch][op] / baseline[op] for op in KERNEL_OPERATIONS]
            for batch in BATCH_SIZES]
    print()
    print(format_table(["batch size"] + list(KERNEL_OPERATIONS), rows,
                       title="Figure 14 — normalised execution time vs batch size (1.0 = BS 128)"))

    # Shape: larger batches never hurt the amortised time, and going from 32
    # to 1024 gives a visible improvement for the cheap kernels.
    for op in KERNEL_OPERATIONS:
        assert times[1024][op] <= times[32][op]
    assert times[1024]["HADD"] < times[32]["HADD"]


def test_fig14_layout_ablation(benchmark):
    """Data-layout ablation (Figure 9): (L,B,N) vs (B,L,N) packing bandwidth."""
    model = MemoryTrafficModel(A100)
    speedups = benchmark(lambda: {batch: model.layout_speedup(batch, 1 << 16)
                                  for batch in BATCH_SIZES})
    print()
    print(format_table(["batch size", "(L,B,N) over (B,L,N) bandwidth speedup"],
                       [[batch, value] for batch, value in speedups.items()],
                       title="Ablation — batching data layout"))
    assert all(value >= 1.0 for value in speedups.values())
    assert speedups[1024] >= speedups[32]
