"""Figure 13: operation-level execution-time breakdown of the real workloads."""

from repro.perf import WorkloadModel, format_table
from repro.workloads import WORKLOADS


def _breakdowns():
    model = WorkloadModel()
    return {name: model.evaluate(spec).operation_breakdown()
            for name, spec in WORKLOADS.items()}


def test_fig13_workload_operation_breakdown(benchmark):
    breakdowns = benchmark(_breakdowns)
    operations = ("HMULT", "HROTATE", "RESCALE", "HADD", "CMULT")
    rows = [[name] + [100.0 * breakdowns[name].get(op, 0.0) for op in operations]
            for name in breakdowns]
    print()
    print(format_table(["workload"] + list(operations), rows,
                       title="Figure 13 — operation share per workload (%)"))
    print("paper: HROTATE is the most time-consuming operation in every workload")

    for name, breakdown in breakdowns.items():
        assert breakdown["HROTATE"] == max(breakdown.values())
        # HMULT+HROTATE together dominate.
        assert breakdown["HROTATE"] + breakdown.get("HMULT", 0.0) > 0.6
