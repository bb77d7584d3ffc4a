"""Figure 11: kernel-level execution-time breakdown of each CKKS operation."""

from bench_common import default_model
from repro.perf import OPERATIONS, format_table


def _breakdowns():
    model = default_model()
    return {operation: model.kernel_breakdown(operation) for operation in OPERATIONS}


def test_fig11_operation_breakdown(benchmark):
    breakdowns = benchmark(_breakdowns)
    kernels = sorted({kernel for b in breakdowns.values() for kernel in b})
    rows = [[op] + [100.0 * breakdowns[op].get(kernel, 0.0) for kernel in kernels]
            for op in OPERATIONS]
    print()
    print(format_table(["operation"] + kernels, rows,
                       title="Figure 11 — kernel share of each operation (%)"))
    print("paper: NTT is 92.1%% of HMULT and 95.4%% of HROTATE")

    # Shape: the NTT kernel dominates HMULT and HROTATE; HADD has no NTT at all.
    assert breakdowns["HMULT"]["NTT"] > 0.5
    assert breakdowns["HROTATE"]["NTT"] > 0.5
    assert breakdowns["HMULT"]["NTT"] == max(breakdowns["HMULT"].values())
    assert "NTT" not in breakdowns["HADD"]
