"""Contract test of the end-to-end benchmark (collected by tier-1).

Runs ``run.py --quick --traced`` twice on one seed and checks what the
benchmark promises every later PR: the workload and metric names are the
ones BENCHMARK.json declares, BENCHMARK.json itself keeps to the driver's
schema, the per-layer self shares partition the traced time, kernel counts
repeat exactly, and the tracer leaves no wrapper behind.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two quick traced runs of every workload on the same seed, side by side."""
    out = tmp_path_factory.mktemp("e2e")
    paths = [out / "a.json", out / "b.json"]
    children = [subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--quick", "--traced", "--seed", "7",
         "--out", str(path)], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        for path in paths]
    for child in children:
        output, _ = child.communicate(timeout=120)
        assert child.returncode == 0, output
    return [json.loads(path.read_text()) for path in paths]


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][-1].startswith(SPEC["paths"][0] + "/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    # 4 + 22 x workloads runs must fit the driver's 3420 s with set-up.
    assert (4 + 22 * len(SPEC["workloads"])) * (SPEC["run_seconds"] + 9) < 3420


def test_names_match_benchmark_json(quick_runs):
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for result in quick_runs:
        assert list(result["workloads"]) == [w["name"] for w in SPEC["workloads"]]
        for name, workload in result["workloads"].items():
            assert workload["why"] == next(
                w["why"] for w in SPEC["workloads"] if w["name"] == name)
            for run in workload["runs"]:
                assert set(run["values"]) == declared, name
                assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1


def test_end_to_end_metrics_are_never_zero(quick_runs):
    for workload in quick_runs[0]["workloads"].values():
        for metric in SPEC["end_to_end"]:
            assert workload["runs"][0]["values"][metric["name"]] > 0, metric["name"]


def test_self_shares_sum_to_one(quick_runs):
    for name, workload in quick_runs[0]["workloads"].items():
        values = workload["runs"][0]["values"]
        total = sum(value for metric, value in values.items()
                    if metric.endswith(".self_share")) + values["unattributed.share"]
        assert total == pytest.approx(1.0, abs=0.01), name


def test_kernel_counts_repeat_exactly(quick_runs):
    first, second = quick_runs
    for name in first["workloads"]:
        a = first["workloads"][name]["runs"][0]["values"]
        b = second["workloads"][name]["runs"][0]["values"]
        counts = [metric for metric in a if metric.startswith("kernels.")]
        assert len(counts) == 11
        assert {m: a[m] for m in counts} == {m: b[m] for m in counts}, name
        assert a["kernels.ntt.count"] > 0


def test_tracer_leaves_no_wrapper_behind():
    import repro
    from repro.api.facade import TensorFheContext
    from repro.numtheory.floatmod import BarrettChain

    from e2e.trace import Tracer, default_targets

    before = (vars(TensorFheContext)["multiply"], vars(BarrettChain)["lazy_reduce"])
    tracer = Tracer(default_targets(repro.backend.get_backend("blas")))
    with tracer.installed():
        assert vars(TensorFheContext)["multiply"] is not before[0]
    assert (vars(TensorFheContext)["multiply"], vars(BarrettChain)["lazy_reduce"]) == before
