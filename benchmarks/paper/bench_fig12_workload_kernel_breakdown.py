"""Figure 12: kernel-level execution-time breakdown of the real workloads."""

from repro.perf import WorkloadModel, format_table
from repro.workloads import WORKLOADS


def _breakdowns():
    model = WorkloadModel()
    return {name: model.evaluate(spec).kernel_breakdown()
            for name, spec in WORKLOADS.items()}


def test_fig12_workload_kernel_breakdown(benchmark):
    breakdowns = benchmark(_breakdowns)
    kernels = sorted({kernel for b in breakdowns.values() for kernel in b})
    rows = [[name] + [100.0 * breakdowns[name].get(kernel, 0.0) for kernel in kernels]
            for name in breakdowns]
    print()
    print(format_table(["workload"] + kernels, rows,
                       title="Figure 12 — kernel share per workload (%)"))
    print("paper: the NTT kernel takes the largest share, up to 92.8%% in LR")

    for name, breakdown in breakdowns.items():
        assert breakdown["NTT"] == max(breakdown.values())
        assert breakdown["NTT"] > 0.5
