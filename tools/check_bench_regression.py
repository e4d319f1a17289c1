#!/usr/bin/env python3
"""Gate benchmark metrics against the committed baselines.

Compares a fresh google-benchmark JSON run against a checked-in
baseline (e.g. BENCH_serving.json) and fails when any watched
benchmark's metric moved the wrong way by more than the tolerance.
Used by CI's serving-path steps to catch changes that tax sustained
ops/s or tail latency:

    tools/check_bench_regression.py \
        --baseline BENCH_serving.json \
        --candidate BENCH_serving.smoke.json \
        --metric items_per_second:higher --metric p99_ns:lower \
        --tolerance 0.30

`--metric NAME[:higher|:lower]` may repeat; the default is
`items_per_second:higher`. For a `higher` metric a regression is a
drop; for a `lower` metric (latencies) a regression is a rise. A
metric absent from a benchmark entry on either side is skipped for
that benchmark rather than failing the gate.

Only benchmarks present in BOTH files are compared (the smoke run
usually executes a filtered subset), so renaming or adding benchmarks
never breaks the gate by itself — but if the filter matches nothing in
common, that is an error: an empty comparison must not pass silently.

`--ratio NUM=DEN` compares within one run instead: no baseline, and
every candidate benchmark whose name has the path component NUM (and
matches --filter) is measured against the benchmark named the same with
DEN in its place. CI's readers gate uses it, so the fsync speed of the
machine cancels out of the verdict:

    tools/check_bench_regression.py \
        --candidate BENCH_update.readers4.json \
        --ratio 'readers:4=readers:0' --tolerance 0.30

`--list` prints the comparable benchmark names found in a file (useful
for building a --filter) instead of comparing:

    tools/check_bench_regression.py --baseline BENCH_update.json --list

A missing file, unreadable JSON, a JSON document without the
google-benchmark shape, or a malformed --metric spec is reported as a
one-line error (exit 2), never a traceback.
"""

import argparse
import json
import re
import sys


class ToolError(Exception):
    """A user-facing input problem (bad path, bad JSON, bad shape)."""


def parse_metric_spec(spec):
    """'p99_ns:lower' -> ('p99_ns', 'lower'); bare names mean higher."""
    name, sep, direction = spec.partition(":")
    if not sep:
        direction = "higher"
    if not name or direction not in ("higher", "lower"):
        raise ToolError(f"bad --metric spec {spec!r}: expected "
                        "NAME, NAME:higher, or NAME:lower")
    return name, direction


def load_metrics(path, metric_names):
    """name -> {metric: value} for every aggregate-free benchmark."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise ToolError(f"cannot read {path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise ToolError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict) or "benchmarks" not in doc:
        raise ToolError(f"{path} has no 'benchmarks' key — not a "
                        "google-benchmark JSON report?")
    out = {}
    for bench in doc["benchmarks"]:
        if not isinstance(bench, dict) or "name" not in bench:
            raise ToolError(f"{path}: malformed benchmark entry "
                            f"(no 'name'): {bench!r}")
        if bench.get("run_type") == "aggregate":
            continue
        metrics = {}
        for metric in metric_names:
            value = bench.get(metric)
            if value is not None:
                metrics[metric] = float(value)
        if metrics:
            out[bench["name"]] = metrics
    return out


def ratio_pairs(candidate, spec, pattern):
    """(reference name, name) for every --ratio NUM=DEN pair in a run."""
    num, sep, den = spec.partition("=")
    if not sep or not num or not den:
        raise ToolError(f"bad --ratio spec {spec!r}: expected NUM=DEN")
    pairs = []
    for name in sorted(candidate):
        parts = name.split("/")
        if num not in parts or not pattern.search(name):
            continue
        ref = "/".join(den if p == num else p for p in parts)
        if ref in candidate:
            pairs.append((ref, name))
    return pairs


def run(args):
    specs = [parse_metric_spec(s)
             for s in (args.metric or ["items_per_second:higher"])]
    metric_names = [name for name, _ in specs]
    if args.list:
        if not args.baseline:
            raise ToolError("--list needs --baseline")
        for name in sorted(load_metrics(args.baseline, metric_names)):
            print(name)
        if args.candidate:
            for name in sorted(load_metrics(args.candidate, metric_names)):
                print(name)
        return 0

    if not args.candidate:
        raise ToolError("--candidate is required (or use --list)")
    if bool(args.baseline) == bool(args.ratio):
        raise ToolError("give exactly one of --baseline and --ratio")
    candidate = load_metrics(args.candidate, metric_names)
    try:
        pattern = re.compile(args.filter)
    except re.error as e:
        raise ToolError(f"bad --filter regex {args.filter!r}: {e}") from e

    # (reference metrics, checked name, checked metrics) per comparison.
    if args.ratio:
        reference_label = "same-run reference"
        compare = [(candidate[ref], f"{name} / {ref}", candidate[name])
                   for ref, name in ratio_pairs(candidate, args.ratio,
                                                pattern)]
        if not compare:
            print(f"error: no benchmark pairs for --ratio {args.ratio!r} "
                  f"match {args.filter!r} in {args.candidate}",
                  file=sys.stderr)
            return 2
    else:
        reference_label = "baseline"
        baseline = load_metrics(args.baseline, metric_names)
        compare = [(baseline[name], name, candidate[name])
                   for name in sorted(baseline)
                   if name in candidate and pattern.search(name)]
        if not compare:
            print(f"error: no common benchmarks match {args.filter!r} "
                  f"between {args.baseline} and {args.candidate}",
                  file=sys.stderr)
            return 2

    failures = 0
    compared = 0
    for reference, name, checked in compare:
        for metric, direction in specs:
            base = reference.get(metric)
            cand = checked.get(metric)
            if base is None or cand is None:
                continue
            compared += 1
            if base <= 0:
                change = 0.0
            elif direction == "higher":
                change = (base - cand) / base   # fractional drop
            else:
                change = (cand - base) / base   # fractional rise
            regressed = change > args.tolerance
            failures += regressed
            sense = "drop" if direction == "higher" else "rise"
            print(f"{'FAIL' if regressed else 'ok':4} {name} [{metric}]: "
                  f"{reference_label} {base:,.0f} -> candidate {cand:,.0f} "
                  f"({change:+.1%} {sense})")

    if compared == 0:
        print(f"error: no comparable metrics ({', '.join(metric_names)}) "
              f"in {args.baseline or args.ratio} and {args.candidate}",
              file=sys.stderr)
        return 2
    if failures:
        print(f"error: {failures}/{compared} metric comparisons regressed "
              f"beyond {args.tolerance:.0%}", file=sys.stderr)
        return 1
    print(f"all {compared} metric comparisons within {args.tolerance:.0%} "
          f"of the {reference_label}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline",
                        help="committed benchmark JSON (the reference)")
    parser.add_argument("--candidate",
                        help="fresh benchmark JSON to check")
    parser.add_argument("--filter", default=".*",
                        help="regex of benchmark names to compare")
    parser.add_argument("--metric", action="append",
                        help="metric spec NAME[:higher|:lower]; may repeat "
                             "(default: items_per_second:higher)")
    parser.add_argument("--ratio", metavar="NUM=DEN",
                        help="compare within --candidate: each benchmark "
                             "with path component NUM against its DEN "
                             "twin (no baseline)")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional move (0.15 = 15%%)")
    parser.add_argument("--list", action="store_true",
                        help="print comparable benchmark names and exit")
    args = parser.parse_args()
    try:
        return run(args)
    except ToolError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
