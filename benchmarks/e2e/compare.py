#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first set of runs), B the change.
One row per workload x end-to-end metric, never pooled: B's median over
A's median with the base printed, the metric's bound from BENCHMARK.json,
and a verdict —

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  the run-to-run spread (interquartile range over the
                  median, of either side) is wider than the bound, so the
                  medians cannot be told apart — unless every run of one
                  side reads better than every run of the other, which
                  settles it whatever the spread;
* ``ok``          otherwise.

Exit status 1 if any row is ``worse``, 0 otherwise.  ``--layers`` also
lists the per-layer metrics (no verdict; exact-repeat counts that differ
are marked).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _runs(result: dict, workload: str, metric: str) -> list:
    """The metric's value in every run; empty for a ``--summary-only`` file."""
    return [run["values"][metric] for run in result["workloads"][workload].get("runs", [])
            if metric in run["values"]]


def verdict(base: list, new: list, base_summary: dict, new_summary: dict,
            better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one workload x metric."""
    sign = 1.0 if better == "lower" else -1.0
    paired = bool(base and new)
    if paired and all(sign * n < sign * b for n in new for b in base):
        return "ok"          # every run of B better than every run of A
    loss = sign * (new_summary["median"] - base_summary["median"]) / abs(base_summary["median"])
    separated = paired and all(sign * n > sign * b for n in new for b in base)
    spread = max(base_summary.get("spread", 0.0), new_summary.get("spread", 0.0))
    if spread > bound and not separated:
        return "unresolved"
    return "worse" if loss > bound else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="result JSON of the base (A)")
    parser.add_argument("change", help="result JSON of the change (B)")
    parser.add_argument("--layers", action="store_true",
                        help="also list the per-layer metrics")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = json.loads(Path(args.base).read_text())
    change = json.loads(Path(args.change).read_text())

    worse = 0
    print("%-14s %-24s %12s %12s %8s %6s %7s %7s  %s"
          % ("workload", "metric", "base", "change", "ratio", "bound",
             "spreadA", "spreadB", "verdict"))
    for workload in base["workloads"]:
        if workload not in change["workloads"]:
            print("%-14s missing from %s" % (workload, args.change))
            continue
        summaries = [side["workloads"][workload]["summary"] for side in (base, change)]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in summaries[0] or name not in summaries[1]:
                continue
            a, b = summaries[0][name], summaries[1][name]
            status = verdict(_runs(base, workload, name), _runs(change, workload, name),
                             a, b, metric["better"], metric["bound"])
            worse += status == "worse"
            print("%-14s %-24s %12.5g %12.5g %8.4f %6.2f %7s %7s  %s"
                  % (workload, name, a["median"], b["median"],
                     b["median"] / a["median"], metric["bound"],
                     *("%.3f" % s["spread"] if "spread" in s else "n=%d" % s["n"]
                       for s in (a, b)), status))
        if args.layers:
            for metric in spec["per_layer"]:
                name = metric["name"]
                if name not in summaries[0] or name not in summaries[1]:
                    continue
                a, b = summaries[0][name]["median"], summaries[1][name]["median"]
                note = ""
                if name.startswith("kernels.") and a != b:
                    note = "count DIFFERS"
                print("%-14s %-44s %14.6g %14.6g  %s" % (workload, name, a, b, note))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
