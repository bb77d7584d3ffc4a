"""Figure 10: stall breakdown of the butterfly NTT vs the GEMM NTT (TensorFHE-CO)."""

from repro.gpu import BUTTERFLY_NTT, GEMM_NTT, PipelineStallModel, StallCategory
from repro.perf import format_table
from repro.perf.literature import FIGURE_10_IMPROVEMENTS


def _compare():
    model = PipelineStallModel()
    return (model.stall_breakdown(BUTTERFLY_NTT), model.stall_breakdown(GEMM_NTT),
            model.compare(BUTTERFLY_NTT, GEMM_NTT),
            model.speedup_estimate(BUTTERFLY_NTT, GEMM_NTT, compute_overhead=0.012))


def test_fig10_ntt_stall_reduction(benchmark):
    butterfly, gemm, reduction, speedup = benchmark(_compare)
    rows = [[c, butterfly[c], gemm[c], reduction[c]] for c in StallCategory.ALL]
    print()
    print(format_table(["stall category", "butterfly NTT", "TensorFHE-CO", "reduction"],
                       rows, title="Figure 10 — NTT stall breakdown (% of cycles)"))
    print("modelled NTT speedup from stall removal: %.2fx" % speedup)
    print("paper: RAW -%.1f pts, long-latency -%.1f pts, overall +%.1f%% performance" % (
        FIGURE_10_IMPROVEMENTS["raw_stall_reduction_points"],
        FIGURE_10_IMPROVEMENTS["long_latency_reduction_points"],
        FIGURE_10_IMPROVEMENTS["overall_ntt_improvement_percent"]))

    assert reduction[StallCategory.RAW] > 10.0
    assert reduction[StallCategory.LONG_LATENCY] > 0.0
    assert 1.15 < speedup < 1.8
