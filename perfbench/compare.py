#!/usr/bin/env python3
"""Compares two sets of benchmark results, refusing unlike contexts.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the per-run records perfbench/run.py saves under
.bench_build/results/ (one JSON file per workload, seed and trace mode).
Runs are grouped by workload and trace mode; for every metric it prints
each side's median and quartiles, and flags a change worse than the
metric's bound in BENCHMARK.json. It exits 2, comparing nothing, when the
two sides' contexts differ in anything but seed, workload and trace mode:
a number measured on another box, build, directory size, durability mode
or serve configuration is not comparable.
"""

import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                runs.append(json.load(f))
    return runs


def comparable_context(run):
    ctx = dict(run["context"])
    for per_run in ("seed", "workload", "trace"):
        ctx.pop(per_run, None)
    return ctx


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("error: no results in one of the directories", file=sys.stderr)
        return 2
    contexts = {json.dumps(comparable_context(r), sort_keys=True)
                for r in base + new}
    if len(contexts) != 1:
        print("error: the runs were measured in different contexts; refusing "
              "to compare:", file=sys.stderr)
        for ctx in sorted(contexts):
            print("  " + ctx, file=sys.stderr)
        return 2
    # The host itself can be slower on one side (a shared VM); say so.
    refs = [statistics.median(r["host_reference_s"] for r in side)
            for side in (base, new)]
    if abs(refs[1] - refs[0]) > 0.1 * refs[0]:
        print("warning: the host reference computation took %.3fs (base) vs "
              "%.3fs (new); differences may be the host's" % tuple(refs))
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    regressions = 0
    groups = sorted({(r["context"]["workload"], r["context"]["trace"])
                     for r in base + new})

    def values(runs, group, metric):
        return [r["result"]["metrics"][metric]["value"] for r in runs
                if (r["context"]["workload"], r["context"]["trace"]) == group
                and metric in r["result"]["metrics"]]

    for group in groups:
        print("== %s (trace %d)" % group)
        for metric in bounds:
            a, b = values(base, group, metric), values(new, group, metric)
            if not a or not b:
                continue
            qa, qb = summary(a), summary(b)
            spec_m = bounds[metric]
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if spec_m["better"] == "lower" else -change
            flag = ""
            if "bound" in spec_m and worse > spec_m["bound"]:
                flag = "  WORSE than bound %.2f" % spec_m["bound"]
                regressions += 1
            print("  %-30s base %12.4g [%g..%g]  new %12.4g [%g..%g]  %+6.1f%%%s"
                  % (metric, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                     100 * change, flag))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
