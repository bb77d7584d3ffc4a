"""Figure 15: sensitivity to the polynomial length N."""

from repro.gpu import A100
from repro.perf import ModelParameters, OperationModel, format_table

POLY_LENGTHS = (2048, 4096, 8192, 16384, 32768, 65536)
KERNELS = ("NTT", "HADD", "CMULT", "HROTATE")


def _sweep():
    times = {}
    for n in POLY_LENGTHS:
        parameters = ModelParameters(ring_degree=n, level_count=20, dnum=5,
                                     batch_size=128)
        model = OperationModel(parameters, gpu=A100)
        times[n] = {kernel: model.operation_time_us(kernel) for kernel in KERNELS}
    return times


def test_fig15_poly_length(benchmark):
    times = benchmark(_sweep)
    baseline = times[65536]
    rows = [[n] + [times[n][k] / baseline[k] for k in KERNELS] for n in POLY_LENGTHS]
    print()
    print(format_table(["N"] + list(KERNELS), rows,
                       title="Figure 15 — normalised execution time vs polynomial length"))
    print("paper: NTT gains ~20.6x going from N=65536 to N=2048")

    # Shape: monotone decrease with N, and a large NTT speedup at N=2048.
    for kernel in KERNELS:
        values = [times[n][kernel] for n in POLY_LENGTHS]
        assert values == sorted(values)
    ntt_speedup = times[65536]["NTT"] / times[2048]["NTT"]
    assert ntt_speedup > 8.0
