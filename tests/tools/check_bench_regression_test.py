#!/usr/bin/env python3
"""Tiny regression test for tools/check_bench_regression.py.

Exercises the gate's verdicts (pass, regression, disjoint sets) and the
graceful-error paths (missing file, bad JSON, wrong shape, --list).
Run as: check_bench_regression_test.py <path-to-tool>
"""

import json
import os
import subprocess
import sys
import tempfile

TOOL = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
    os.path.dirname(__file__), "..", "..", "tools",
    "check_bench_regression.py")

FAILURES = []


def run(*args):
    return subprocess.run([sys.executable, TOOL, *args],
                          capture_output=True, text=True)


def check(name, condition, result):
    if condition:
        print(f"ok   {name}")
    else:
        FAILURES.append(name)
        print(f"FAIL {name}\n  stdout: {result.stdout!r}\n"
              f"  stderr: {result.stderr!r}\n  exit: {result.returncode}")


def bench_json(path, throughputs):
    doc = {"benchmarks": [
        {"name": name, "run_type": "iteration", "items_per_second": ips}
        for name, ips in throughputs.items()]}
    with open(path, "w") as f:
        json.dump(doc, f)


def serving_json(path, ips, p99_ns):
    doc = {"benchmarks": [{
        "name": "serving/mixed_closed_loop", "run_type": "iteration",
        "items_per_second": ips, "p50_ns": p99_ns / 4, "p99_ns": p99_ns}]}
    with open(path, "w") as f:
        json.dump(doc, f)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base.json")
        good = os.path.join(tmp, "good.json")
        slow = os.path.join(tmp, "slow.json")
        other = os.path.join(tmp, "other.json")
        garbage = os.path.join(tmp, "garbage.json")
        shapeless = os.path.join(tmp, "shapeless.json")
        bench_json(base, {"BM_Write/1": 1000.0, "BM_Write/2": 2000.0})
        bench_json(good, {"BM_Write/1": 950.0, "BM_Write/2": 2100.0})
        bench_json(slow, {"BM_Write/1": 400.0, "BM_Write/2": 2000.0})
        bench_json(other, {"BM_Other/1": 10.0})
        with open(garbage, "w") as f:
            f.write("{not json")
        with open(shapeless, "w") as f:
            json.dump({"context": {}}, f)

        r = run("--baseline", base, "--candidate", good)
        check("within tolerance passes", r.returncode == 0, r)

        r = run("--baseline", base, "--candidate", slow)
        check("regression fails with exit 1",
              r.returncode == 1 and "regressed" in r.stderr, r)

        r = run("--baseline", base, "--candidate", slow,
                "--tolerance", "0.7")
        check("loose tolerance passes", r.returncode == 0, r)

        r = run("--baseline", base, "--candidate", other)
        check("disjoint sets are an error",
              r.returncode == 2 and "no common" in r.stderr, r)

        r = run("--baseline", os.path.join(tmp, "missing.json"),
                "--candidate", good)
        check("missing baseline is graceful",
              r.returncode == 2 and r.stderr.startswith("error:")
              and "Traceback" not in r.stderr, r)

        r = run("--baseline", garbage, "--candidate", good)
        check("bad JSON is graceful",
              r.returncode == 2 and r.stderr.startswith("error:")
              and "Traceback" not in r.stderr, r)

        r = run("--baseline", shapeless, "--candidate", good)
        check("wrong shape is graceful",
              r.returncode == 2 and "benchmarks" in r.stderr
              and "Traceback" not in r.stderr, r)

        r = run("--baseline", base, "--candidate", good,
                "--filter", "(unclosed")
        check("bad regex is graceful",
              r.returncode == 2 and "regex" in r.stderr, r)

        r = run("--baseline", base, "--list")
        check("--list prints names without a candidate",
              r.returncode == 0 and "BM_Write/1" in r.stdout
              and "BM_Write/2" in r.stdout, r)

        r = run("--baseline", base)
        check("no candidate without --list is an error",
              r.returncode == 2 and "--candidate" in r.stderr, r)

        # Multi-metric gating with directions (the serving-path gate):
        # throughput is higher-better, p99 latency is lower-better.
        serve_base = os.path.join(tmp, "serve_base.json")
        serve_ok = os.path.join(tmp, "serve_ok.json")
        serve_slow = os.path.join(tmp, "serve_slow.json")
        serve_fat_tail = os.path.join(tmp, "serve_fat_tail.json")
        serving_json(serve_base, ips=50000.0, p99_ns=2_000_000.0)
        serving_json(serve_ok, ips=48000.0, p99_ns=2_100_000.0)
        serving_json(serve_slow, ips=20000.0, p99_ns=2_000_000.0)
        serving_json(serve_fat_tail, ips=50000.0, p99_ns=9_000_000.0)

        metric_args = ["--metric", "items_per_second:higher",
                       "--metric", "p99_ns:lower", "--tolerance", "0.3"]
        r = run("--baseline", serve_base, "--candidate", serve_ok,
                *metric_args)
        check("serving gate passes small moves both ways",
              r.returncode == 0, r)

        r = run("--baseline", serve_base, "--candidate", serve_slow,
                *metric_args)
        check("throughput collapse fails the serving gate",
              r.returncode == 1 and "regressed" in r.stderr, r)

        r = run("--baseline", serve_base, "--candidate", serve_fat_tail,
                *metric_args)
        check("p99 blowup fails even with throughput flat",
              r.returncode == 1 and "p99_ns" in r.stdout, r)

        r = run("--baseline", serve_base, "--candidate", serve_fat_tail,
                "--metric", "p99_ns:higher")
        check("direction matters: a rise is fine for a 'higher' metric",
              r.returncode == 0, r)

        r = run("--baseline", serve_base, "--candidate", serve_ok,
                "--metric", "p99_ns:sideways")
        check("malformed metric spec is graceful",
              r.returncode == 2 and "--metric" in r.stderr, r)

        r = run("--baseline", base, "--candidate", good,
                "--metric", "p99_ns:lower")
        check("metric absent from both sides is an error, not a pass",
              r.returncode == 2 and ("no comparable" in r.stderr
                                     or "no common" in r.stderr), r)

        # Same-run ratio mode (the readers gate): each readers:4 row
        # against its readers:0 twin, no baseline file.
        readers_ok = os.path.join(tmp, "readers_ok.json")
        readers_taxed = os.path.join(tmp, "readers_taxed.json")
        readers_lone = os.path.join(tmp, "readers_lone.json")
        bench_json(readers_ok, {
            "BM_G/writers:1/readers:0/real_time": 1000.0,
            "BM_G/writers:1/readers:4/real_time": 900.0,
            "BM_G/writers:8/readers:0/real_time": 5000.0,
            "BM_G/writers:8/readers:4/real_time": 5100.0,
            "BM_G/writers:8/readers:64/real_time": 100.0})
        bench_json(readers_taxed, {
            "BM_G/writers:1/readers:0/real_time": 1000.0,
            "BM_G/writers:1/readers:4/real_time": 500.0,
            "BM_G/writers:8/readers:0/real_time": 5000.0,
            "BM_G/writers:8/readers:4/real_time": 5000.0})
        bench_json(readers_lone, {"BM_G/writers:1/readers:4/real_time": 1.0})

        r = run("--candidate", readers_ok, "--ratio", "readers:4=readers:0",
                "--tolerance", "0.2")
        check("ratio mode passes a small reader tax",
              r.returncode == 0 and r.stdout.count("ok ") == 2, r)

        r = run("--candidate", readers_taxed, "--ratio",
                "readers:4=readers:0", "--tolerance", "0.2")
        check("ratio mode fails a reader tax",
              r.returncode == 1 and "FAIL BM_G/writers:1/readers:4" in r.stdout,
              r)

        r = run("--candidate", readers_lone, "--ratio", "readers:4=readers:0")
        check("ratio mode without a reference row is an error",
              r.returncode == 2 and "no benchmark pairs" in r.stderr, r)

        r = run("--candidate", readers_ok, "--ratio", "readers:4")
        check("malformed ratio spec is graceful",
              r.returncode == 2 and "--ratio" in r.stderr, r)

        r = run("--baseline", base, "--candidate", readers_ok,
                "--ratio", "readers:4=readers:0")
        check("baseline and ratio together is an error",
              r.returncode == 2 and "exactly one" in r.stderr, r)

    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed: {FAILURES}",
              file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
