#!/usr/bin/env python3
"""One command for the repo's end-to-end benchmark.

Two ways in:

* ``run.py --workload NAME --seed S --seconds T --trace 0|1`` runs one
  workload in this process (the BENCHMARK.json contract: the last line of
  stdout is one JSON object with ``correct``/``attempted``/``failed`` and
  the end-to-end metrics, or with ``--trace 1`` the per-layer metrics);
* ``run.py --seed S [--traced] [--quick] [--repeat K] [--out FILE]`` runs
  every workload, each in a fresh subprocess so caches are cold and
  ``setup_s`` / ``peak_rss_mb`` are honest, prints every metric by name
  with unit and sample count and writes the result JSON compare.py reads.

Metric names and units are read from BENCHMARK.json, the one place they
are declared; this file computes a value for each.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Import this directory as the package ``e2e`` (so trace.py cannot shadow
# the standard library's ``trace``) and the library from the checkout.
sys.path[0] = str(HERE.parent)
sys.path.insert(1, str(ROOT / "src"))

from e2e import THREAD_ENV_VARS, pin_allocator  # noqa: E402  (numpy-free)

for _name in THREAD_ENV_VARS:       # before the first numpy import
    os.environ[_name] = "1"
ALLOCATOR = pin_allocator()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

try:
    import numpy as np  # noqa: E402
    import repro  # noqa: E402
    from repro.kernels.base import KernelName  # noqa: E402
except ImportError as exc:       # a directory without the library: no result
    print("e2e: cannot import the library under %s: %s" % (ROOT / "src", exc),
          file=sys.stderr)
    raise SystemExit(2)

from e2e.harness import (  # noqa: E402
    Recorder, host_metadata, loadavg, peak_rss_mb, percentile, summarise)
from e2e.trace import Tracer, default_targets  # noqa: E402
from e2e.workloads import BACKEND, WORKLOADS, Workload  # noqa: E402
from e2e.yardstick import REFERENCE_S, Speedometer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = frozenset(metric["name"] for metric in SPEC["end_to_end"])
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A session (or a failed one) this long after its due time is late.
LATE_AFTER_S = 0.5
#: The ops whose rate is an end-to-end metric.  Decrypt is timed as well but
#: reported per layer (``ckks.decrypt.ops_s``): three quarters of it is a
#: per-coefficient big-integer loop in the interpreter, which the host's
#: slow phases hit half again as hard as the yardstick (README).
OP_KINDS = ("hmult", "hrotate", "cmult", "hadd", "encrypt")
KERNEL_METRICS = {
    "ntt": KernelName.NTT, "intt": KernelName.INTT,
    "hadamard": KernelName.HADAMARD, "ele_add": KernelName.ELE_ADD,
    "ele_sub": KernelName.ELE_SUB, "frobenius": KernelName.FROBENIUS,
    "conjugate": KernelName.CONJUGATE, "conv": KernelName.CONV,
}
DETAIL_PREFIX = "DETAIL "


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def _context_seed(seed: int, repeat: int) -> int:
    return int(np.random.SeedSequence([seed, repeat]).generate_state(1)[0])


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            trace_out: str = None) -> dict:
    """Set up, run rounds for ``seconds`` and return the detailed result."""
    load_start = loadavg()
    meter = Speedometer()
    repeats = 1 if (traced or workload.quick) else SETUP_REPEATS
    setups, state = [], None
    for repeat in range(repeats):
        state = None            # the previous context goes before the next comes
        gc.collect()
        meter.mark()
        start = perf_counter()
        state = workload.setup(_context_seed(seed, repeat), meter)
        setups.append((start, perf_counter()))
        meter.mark()

    plain = workload.recorder(state, meter)
    tracer = traced_rec = None
    if traced:
        tracer = Tracer(default_targets(repro.get_active_backend()),
                        keep_spans=bool(trace_out))
        traced_rec = workload.recorder(state, meter, tracer)

    # Untraced and traced rounds alternate on the same inputs, so the
    # overhead is a ratio of like with like and the wrappers are provably
    # gone again after every traced round.
    stride = 2 if traced else 1
    fixed = stride if (workload.quick or workload.open_loop) else None
    budget = seconds / stride
    rounds = 0
    start = perf_counter()
    while True:
        gc.collect()
        tracing = traced and rounds % 2 == 1
        rec = traced_rec if tracing else plain
        rng = np.random.default_rng([seed, 1 + rounds // stride])
        try:
            if tracing:
                with tracer.installed():
                    workload.round(state, rng, rec, budget)
            else:
                workload.round(state, rng, rec, budget)
        except Exception:       # counted as failed operations by the recorder
            rec.abort_round()
        rounds += 1
        elapsed = perf_counter() - start
        if fixed is not None:
            if rounds >= fixed:
                break
        elif rounds % stride == 0 and elapsed + stride * elapsed / rounds > seconds:
            break

    values = end_to_end_metrics(plain, setups)
    if traced:
        values.update(layer_metrics(plain, traced_rec, tracer))
        if trace_out:
            Path(trace_out).write_text(json.dumps(tracer.chrome_trace(workload.name)))
    recorders = [plain] + ([traced_rec] if traced else [])
    attempted = sum(rec.attempted for rec in recorders)
    failed = sum(rec.failed for rec in recorders)
    late = plain.generator_late
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "traced": traced, "quick": workload.quick,
        "correct": failed == 0 and bool(plain.program), "attempted": attempted,
        "failed": failed, "values": values,
        # The same figures as plain wall-clock, not read against the yardstick.
        "wall_clock": end_to_end_metrics(plain, setups, raw=True),
        "summaries": {
            "setup_s": summarise([plain.seconds(interval) for interval in setups]),
            "program_s": summarise(plain.program_seconds()),
            **{kind + "_op_s": summarise(plain.per_op(kind)) for kind in list(plain.timed)},
        },
        "serving": {
            "rejected": sum(rec.serving["rejected"] for rec in recorders),
            "generator_late_ms_max": max(late) * 1e3 if late else 0.0,
        },
        "hygiene": {
            "threads": host_metadata()["threads"], "allocator": ALLOCATOR,
            "backend": repro.get_active_backend().name, "context_backend": BACKEND,
            "gc_collect_between_rounds": True, "round_robin": True,
            "warmup_inside_setup": True, "setup_repeats": repeats,
            "rounds": rounds, "program_units": plain.units, "unit": workload.unit,
            "loadavg_start": load_start, "loadavg_end": loadavg(),
            "yardstick_reference_s": REFERENCE_S, "yardstick_marks": len(meter.marks),
            "machine_speed": meter.overall(),
        },
    }


def end_to_end_metrics(rec: Recorder, setups, raw: bool = False) -> dict:
    """Times are seconds at reference speed (yardstick.py) unless ``raw``."""
    values = {"setup_s": statistics.median(rec.seconds(interval, raw) for interval in setups),
              "peak_rss_mb": peak_rss_mb()}
    if rec.program:
        values["program_s"] = statistics.median(rec.program_seconds(raw))
        values["precision_bits"] = rec.precision_bits
    for kind in OP_KINDS:
        if rec.timed[kind]:
            values[kind + "_ops_s"] = 1.0 / statistics.median(rec.per_op(kind, raw))
    return values


def layer_metrics(plain: Recorder, rec: Recorder, tracer: Tracer) -> dict:
    """Per-layer metrics of the traced rounds; counts are per program unit."""
    units = max(rec.units, 1)
    share, incl, calls, work = tracer.share, tracer.incl_time, tracer.calls, tracer.work
    values = {group + ".self_share": share(tracer.self_time[group])
              for group in tracer.groups}
    values["unattributed.share"] = share(tracer.unattributed)
    for stage in ("api", "batching.plan", "ckks.evaluator", "ckks.keyswitch",
                  "rns.conv", "rns.modup", "rns.moddown", "ntt.forward",
                  "ntt.inverse", "numtheory.reduce", "backend.gemm",
                  "backend.dgemm", "backend.elementwise"):
        values[stage + ".calls"] = calls[stage] / units
    values["ckks.codec.calls"] = sum(
        calls[stage] for stage in ("ckks.encode", "ckks.encrypt", "ckks.decrypt")) / units
    values["ckks.decrypt.ops_s"] = 1.0 / statistics.median(plain.per_op("decrypt"))
    values["ckks.keyswitch.incl_share"] = share(incl["ckks.keyswitch"])
    boot = "ckks.bootstrap."
    outer = 0.0
    for stage in ("mod_raise", "coeff_to_slot", "slot_to_coeff"):
        values[boot + stage + ".incl_share"] = share(incl[boot + stage])
        outer += incl[boot + stage]
    # EvalMod has no public entry of its own (the sine evaluator is only
    # its first half): it is what is left of the pipeline span.
    values[boot + "eval_mod.incl_share"] = share(max(incl[boot + "pipeline"] - outer, 0.0))
    values[boot + "bsgs.calls"] = calls[boot + "bsgs"] / units
    values["ntt.incl_share"] = share(incl["ntt.forward"] + incl["ntt.inverse"])
    values["numtheory.reduce.bytes"] = work["numtheory.reduce.bytes"] / units
    values["backend.elementwise.bytes"] = work["backend.elementwise.bytes"] / units
    values["backend.gemm.flops"] = work["backend.gemm.flops"] / units
    for kind in ("gemm", "dgemm"):
        seconds = incl["backend." + kind]
        values["backend.%s.gflops_s" % kind] = (
            work["backend.%s.flops" % kind] / seconds / 1e9 if seconds else 0.0)
    launches = work["backend.launches"]
    values["backend.float_call_share"] = (work["backend.float_launches"] / launches
                                          if launches else 0.0)
    for short, kernel in KERNEL_METRICS.items():
        values["kernels.%s.count" % short] = rec.kernel_counts[kernel] / units
    values["kernels.ntt.limb_vectors"] = rec.limb_vectors[KernelName.NTT] / units
    values["kernels.intt.limb_vectors"] = rec.limb_vectors[KernelName.INTT] / units
    values["kernels.transfers.count"] = rec.transfers / units
    values.update(serving_metrics(rec, tracer))
    values["trace.overhead_share"] = (
        statistics.median(rec.program_seconds()) / statistics.median(plain.program_seconds())
        - 1.0 if rec.program and plain.program else 0.0)
    values["machine.speed"] = rec.speedometer.overall()
    return values


def serving_metrics(rec: Recorder, tracer: Tracer) -> dict:
    """The serving layer's numbers; all zero on a workload without an engine."""
    serving = rec.serving

    def ms(samples, q):
        return percentile(samples, q) * 1e3 if samples else 0.0

    batches = serving["batches"]
    mean_batch = serving["completed"] / batches if batches else 0.0
    sessions = [rec.seconds(session) for session in rec.sessions]
    requests = [rec.seconds(request) for request in rec.requests]
    # What a request spent not being computed: its latency less its launch.
    waits = [max(interval[1] - interval[0] - launch, 0.0)
             / rec.speedometer.speed(*interval) for interval, launch in rec.launch_s]
    due = serving["due"]
    late = serving["sessions_failed"] + sum(1 for s in sessions if s > LATE_AFTER_S)
    return {
        "serving.mean_batch": mean_batch,
        "serving.batches": batches / max(rec.units, 1),
        "serving.batch_fill": (mean_batch / serving["flush_target"]
                               if serving["flush_target"] else 0.0),
        "serving.queue_wait_ms_p50": ms(waits, 50),
        "serving.queue_wait_ms_p95": ms(waits, 95),
        # Launches run on the event loop: while one runs nothing else does.
        "serving.loop_blocked_share": (tracer.share(tracer.incl_time["ckks.evaluator"])
                                       if batches else 0.0),
        "serving.generator_late_ms_p95": ms(rec.generator_late, 95),
        "serving.rejected": serving["rejected"],
        "serving.session_ms_p50": ms(sessions, 50),
        "serving.request_ms_p50": ms(requests, 50),
        "serving.request_ms_p95": ms(requests, 95),
        "serving.late_share": late / due if due else 0.0,
    }


def contract_line(detail: dict) -> str:
    """The last line of stdout: the metrics BENCHMARK.json declares for this mode."""
    declared = SPEC["per_layer" if detail["traced"] else "end_to_end"]
    missing = [metric["name"] for metric in declared
               if metric["name"] not in detail["values"]]
    if missing:
        raise SystemExit("e2e: %s produced no value for %s"
                         % (detail["workload"], ", ".join(missing)))
    metrics = {metric["name"]: {"value": detail["values"][metric["name"]],
                                "unit": metric["unit"]} for metric in declared}
    return json.dumps({"correct": detail["correct"], "attempted": detail["attempted"],
                       "failed": detail["failed"], "metrics": metrics})


def report(detail: dict) -> None:
    """Every metric by name, with its unit and the samples behind it."""
    hygiene = detail["hygiene"]
    print("== %s  seed=%d  %s  rounds=%d (%d untraced %ss)  loadavg %s -> %s  "
          "machine speed %.3f"
          % (detail["workload"], detail["seed"],
             "traced" if detail["traced"] else "untraced", hygiene["rounds"],
             hygiene["program_units"], hygiene["unit"],
             hygiene["loadavg_start"], hygiene["loadavg_end"], hygiene["machine_speed"]))
    units = {metric["name"]: metric["unit"]
             for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, value in detail["values"].items():
        line = "  %-42s %14.6g %-8s" % (name, value, units.get(name, ""))
        summary = detail["summaries"].get(name.replace("_ops_s", "_op_s"))
        if summary:
            line += "  n=%d  q1=%.4g  q3=%.4g" % (summary["n"], summary["q1"], summary["q3"])
            if "high_value" in summary:
                line += "  p%g=%.4g" % (summary["high_percentile"], summary["high_value"])
            if name.endswith("_ops_s"):
                line += "  (seconds per op)"
        if name in detail["wall_clock"] and name not in ("peak_rss_mb", "precision_bits"):
            line += "  wall-clock %.6g" % detail["wall_clock"][name]
        print(line)
    print("  ops_attempted=%d  ops_failed=%d  serving.rejected=%d  generator_late_ms_max=%.3f"
          % (detail["attempted"], detail["failed"], detail["serving"]["rejected"],
             detail["serving"]["generator_late_ms_max"]))


def run_one(name: str, seed: int, seconds: float, traced: bool, quick: bool,
            trace_out: str = None) -> dict:
    with repro.use_backend(BACKEND):
        detail = measure(WORKLOADS[name](quick), seed, seconds, traced, trace_out)
    report(detail)
    return detail


# ----------------------------------------------------------------------
# Every workload
# ----------------------------------------------------------------------
def _spawn(name: str, seed: int, seconds: float, traced: bool, trace_out: str) -> dict:
    """One workload in a fresh interpreter; its report is passed through.

    Returns None when the run died without a result (reported, not raised:
    the other workloads still run and the set still fails).
    """
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(traced)), "--detail"]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    detail = None
    for line in done.stdout.splitlines()[:-1]:
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
        else:
            print(line)
    if done.returncode or detail is None:
        print("e2e: workload %s exited with status %d and no result"
              % (name, done.returncode), file=sys.stderr)
        return None
    return detail


def _spread(values) -> dict:
    """Median, quartiles and the interquartile share of a metric over runs."""
    summary = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3)
        if summary["median"]:
            summary["spread"] = (q3 - q1) / abs(summary["median"])
    return summary


def run_all(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    result = {"seed": args.seed, "seconds": args.seconds, "quick": args.quick,
              "repeat": args.repeat, "host": host_metadata(), "workloads": {}}
    failed = False
    for name in names:
        runs = []
        for repeat in range(args.repeat):
            seed = args.seed + repeat
            # A traced run alternates untraced and traced rounds; at the
            # quick shapes its untraced half stands in for the untraced run.
            passes = [False, True] if args.traced and not args.quick else [args.traced]
            for traced in passes:
                trace_out = None
                if traced and args.trace_out:
                    trace_out = "%s.%s.json" % (args.trace_out, name)
                if args.quick:      # small shapes: one process, no cold start to protect
                    detail = run_one(name, seed, args.seconds, traced, True, trace_out)
                else:
                    detail = _spawn(name, seed, args.seconds, traced, trace_out)
                if detail is None or not detail["correct"]:
                    failed = True
                if detail is not None:
                    runs.append(detail)
        # End-to-end figures come from the untraced runs only (the quick
        # mode has no others), per-layer figures from the traced ones.
        metrics, wall_clock = {}, {}
        for detail in runs:
            layers_only = detail["traced"] and not args.quick
            for metric, value in detail["values"].items():
                if not (layers_only and metric in END_TO_END):
                    metrics.setdefault(metric, []).append(value)
            if not layers_only:
                for metric, value in detail["wall_clock"].items():
                    wall_clock.setdefault(metric, []).append(value)
        result["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "summary": {metric: _spread(values) for metric, values in metrics.items()},
            "wall_clock": {metric: statistics.median(values)
                           for metric, values in wall_clock.items()},
        }
        if not args.summary_only:
            result["workloads"][name]["runs"] = runs
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))
        print("wrote %s" % args.out)
    if failed:
        print("e2e: FAILED — at least one operation failed or was wrong", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract mode: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="also make the traced pass of every workload")
    parser.add_argument("--quick", action="store_true",
                        help="N=64 shapes, one round: seconds, not minutes")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds seed, seed+1, ...")
    parser.add_argument("--out", help="write the result JSON here")
    parser.add_argument("--summary-only", action="store_true",
                        help="leave the single runs out of the result JSON (baseline.json)")
    parser.add_argument("--trace-out", help="write the traced spans as Chrome-trace JSON")
    parser.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload and args.trace is not None:
        detail = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.quick, args.trace_out)
        if args.detail:
            print(DETAIL_PREFIX + json.dumps(detail))
        print(contract_line(detail))
        return 0
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
