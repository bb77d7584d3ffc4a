"""Figure 4: pipeline-stall breakdown of butterfly NTT vs FFT vs DWT."""

from repro.gpu import BUILTIN_PROFILES, DWT, FFT, PipelineStallModel, StallCategory
from repro.perf import format_table
from repro.perf.literature import FIGURE_4_STALLS


def _breakdowns():
    model = PipelineStallModel()
    return {name: model.stall_breakdown(profile)
            for name, profile in BUILTIN_PROFILES.items()
            if name in ("NTT", "FFT", "DWT")}


def test_fig04_stall_breakdown(benchmark):
    breakdowns = benchmark(_breakdowns)
    model = PipelineStallModel()
    rows = []
    for name, breakdown in breakdowns.items():
        rows.append([name] + [breakdown[c] for c in StallCategory.ALL] +
                    [sum(breakdown.values())])
    print()
    print(format_table(["kernel"] + list(StallCategory.ALL) + ["total"],
                       rows, title="Figure 4 — stall breakdown (% of cycles)"))
    print("paper: NTT total stalls %.1f%%, RAW %.1f%%" % (
        FIGURE_4_STALLS["NTT_total_stall_percent"],
        FIGURE_4_STALLS["NTT_raw_stall_percent"]))

    ntt = breakdowns["NTT"]
    # Shape checks: every kernel stalls, NTT's RAW share is the largest single
    # cause and in the ballpark of the paper's 20.9% / 43.2% figures.
    assert 30.0 < sum(ntt.values()) < 55.0
    assert ntt[StallCategory.RAW] == max(ntt.values())
    assert ntt[StallCategory.FUNCTION_UNIT] > breakdowns["FFT"][StallCategory.FUNCTION_UNIT]
    total_model = PipelineStallModel()
    assert total_model.total_stall_fraction(FFT) > 0
    assert total_model.total_stall_fraction(DWT) > 0
