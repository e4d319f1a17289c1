#!/usr/bin/env python3
"""Serving latency-curve sweep: load_driver across connections x mix
x reactor count.

Boots a fresh `ldapbound serve` (wire front end on an ephemeral port)
for every grid point, drives it with tools/load_driver at that point's
connection count and request-mix preset, and collects the per-point
google-benchmark JSON into one merged report plus a markdown table.
The --reactors axis (default 1; smoke 1,2) sweeps the server's
multi-reactor front end (`--net-reactors`) so SO_REUSEPORT sharding
shows up as its own curve.

    tools/latency_sweep.py                      # full grid, ~3.5 min
    tools/latency_sweep.py --smoke              # CI grid, ~30 s
    tools/latency_sweep.py --update-experiments # also rewrite the
                                                # marked EXPERIMENTS.md block

The merged JSON (default BENCH_serving_sweep.json) keeps the
google-benchmark shape — one benchmark entry per grid point named
`serving_sweep/<mix>/c<connections>/r<reactors>` — so
check_bench_regression.py can compare sweeps if a baseline is ever
committed. The markdown table goes to stdout and, with
--update-experiments, replaces everything between the
`<!-- latency-sweep:begin -->` / `<!-- latency-sweep:end -->` markers
in EXPERIMENTS.md.

Extra server flags pass through with --serve-arg (repeatable), e.g. a
sweep without the flight recorder:

    tools/latency_sweep.py --smoke --serve-arg --flight-capacity \
        --serve-arg 0

The build tree defaults to build/; override with --build or BUILD=.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BEGIN_MARK = "<!-- latency-sweep:begin -->"
END_MARK = "<!-- latency-sweep:end -->"
PORT_RE = re.compile(r"^wire listening on 127\.0\.0\.1:(\d+)$", re.M)


class SweepError(Exception):
    """A user-facing failure (missing binary, serve died, bad output)."""


def wait_for_port(proc, stdout_path, deadline_s=15.0):
    """Polls serve's stdout for the wire port line; raises if it dies."""
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        if proc.poll() is not None:
            raise SweepError(f"serve exited rc={proc.returncode} "
                             "during startup")
        with open(stdout_path) as f:
            match = PORT_RE.search(f.read())
        if match:
            return int(match.group(1))
        time.sleep(0.1)
    raise SweepError("never saw 'wire listening' from serve")


def stop_serve(proc, stdin_pipe):
    """Asks the serve command loop to quit; escalates if it lingers."""
    try:
        stdin_pipe.write(b"quit\n")
        stdin_pipe.flush()
    except OSError:
        pass
    try:
        stdin_pipe.close()
    except OSError:
        pass
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGKILL)
        proc.wait()


def run_point(cli, driver, mix, connections, reactors, args, workdir):
    """One grid point: boot serve, drive it, return the benchmark dict."""
    processes = 2 if connections <= 128 else 4
    per_proc = max(1, connections // processes)
    point_dir = os.path.join(workdir, f"{mix}_c{connections}_r{reactors}")
    os.mkdir(point_dir)
    out_json = os.path.join(point_dir, "point.json")
    serve_out = os.path.join(point_dir, "serve.out")
    serve_err = os.path.join(point_dir, "serve.err")

    serve_cmd = [
        cli, "serve", "data/serving.schema", "data/serving.ldif",
        "--monitor-port", "0", "--port", "0",
        "--max-connections", str(processes * per_proc + 64),
        "--net-workers", "4",
        "--net-reactors", str(reactors),
    ] + args.serve_arg
    with open(serve_out, "wb") as out_f, open(serve_err, "wb") as err_f:
        proc = subprocess.Popen(serve_cmd, cwd=REPO, stdin=subprocess.PIPE,
                                stdout=out_f, stderr=err_f)
    try:
        port = wait_for_port(proc, serve_out)
        drive_cmd = [
            driver, "--port", str(port),
            "--processes", str(processes), "--connections", str(per_proc),
            "--seconds", str(args.seconds),
            "--warmup-seconds", str(args.warmup_seconds),
            "--mix", mix, "--out", out_json,
        ]
        rc = subprocess.run(drive_cmd, cwd=REPO).returncode
        if rc != 0:
            raise SweepError(f"load_driver failed (rc={rc}) at "
                             f"mix={mix} connections={connections}")
    finally:
        stop_serve(proc, proc.stdin)

    with open(out_json) as f:
        doc = json.load(f)
    bench = dict(doc["benchmarks"][0])
    bench["name"] = f"serving_sweep/{mix}/c{connections}/r{reactors}"
    bench["mix"] = mix
    bench["connections_target"] = connections
    bench["reactors"] = reactors
    return bench


def markdown_table(benches):
    lines = [
        "| mix | connections | reactors | ops/s | p50 ms | p95 ms "
        "| p99 ms | p99.9 ms |",
        "|-----|-------------|----------|-------|--------|--------"
        "|--------|----------|",
    ]
    for b in benches:
        lines.append(
            "| {mix} | {conns} | {reactors} | {ops:,.0f} | {p50:.2f} "
            "| {p95:.2f} | {p99:.2f} | {p999:.2f} |".format(
                mix=b["mix"], conns=b["connections_target"],
                reactors=b.get("reactors", 1),
                ops=b["items_per_second"],
                p50=b["p50_ns"] / 1e6, p95=b["p95_ns"] / 1e6,
                p99=b["p99_ns"] / 1e6, p999=b["p999_ns"] / 1e6))
    return "\n".join(lines)


def update_experiments(table, args):
    path = os.path.join(REPO, "EXPERIMENTS.md")
    with open(path) as f:
        text = f.read()
    begin = text.find(BEGIN_MARK)
    end = text.find(END_MARK)
    if begin < 0 or end < 0 or end < begin:
        raise SweepError(f"EXPERIMENTS.md lacks the {BEGIN_MARK} / "
                         f"{END_MARK} marker pair")
    stamp = time.strftime("%Y-%m-%d")
    body = (f"{BEGIN_MARK}\n"
            f"Swept {stamp} ({args.seconds}s measured + "
            f"{args.warmup_seconds}s warmup per point"
            f"{', smoke grid' if args.smoke else ''}):\n\n"
            f"{table}\n")
    text = text[:begin] + body + text[end:]
    with open(path, "w") as f:
        f.write(text)
    print(f"updated EXPERIMENTS.md sweep block", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default=os.environ.get("BUILD", "build"),
                        help="build tree holding tools/ binaries")
    parser.add_argument("--smoke", action="store_true",
                        help="small grid + short windows (CI)")
    parser.add_argument("--mixes", default=None,
                        help="comma list of presets (default read,mixed,"
                             "write; smoke: read,mixed)")
    parser.add_argument("--connections", default=None,
                        help="comma list of total connection counts "
                             "(default 128,512,1024; smoke: 64,128)")
    parser.add_argument("--reactors", default=None,
                        help="comma list of reactor counts passed as "
                             "--net-reactors (default 1; smoke: 1,2)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per point (default 10; "
                             "smoke 3)")
    parser.add_argument("--warmup-seconds", type=int, default=None,
                        help="warmup seconds per point (default 2; "
                             "smoke 1)")
    parser.add_argument("--out", default=None,
                        help="merged JSON path (default "
                             "BENCH_serving_sweep.json, .smoke.json "
                             "with --smoke)")
    parser.add_argument("--serve-arg", action="append", default=[],
                        help="extra flag passed through to `ldapbound "
                             "serve` (repeatable)")
    parser.add_argument("--update-experiments", action="store_true",
                        help="rewrite the marked EXPERIMENTS.md block")
    args = parser.parse_args()

    if args.seconds is None:
        args.seconds = 3 if args.smoke else 10
    if args.warmup_seconds is None:
        args.warmup_seconds = 1 if args.smoke else 2
    mixes = (args.mixes or
             ("read,mixed" if args.smoke else "read,mixed,write")).split(",")
    conns = [int(c) for c in
             (args.connections or
              ("64,128" if args.smoke else "128,512,1024")).split(",")]
    reactor_counts = [int(r) for r in
                      (args.reactors or
                       ("1,2" if args.smoke else "1")).split(",")]
    out = args.out or ("BENCH_serving_sweep.smoke.json" if args.smoke
                       else "BENCH_serving_sweep.json")

    cli = os.path.join(REPO, args.build, "tools", "ldapbound")
    driver = os.path.join(REPO, args.build, "tools", "load_driver")
    for binary in (cli, driver):
        if not os.access(binary, os.X_OK):
            raise SweepError(f"{binary} not built "
                             f"(cmake --build {args.build})")

    benches = []
    workdir = tempfile.mkdtemp(prefix="latency_sweep.")
    try:
        for mix in mixes:
            for c in conns:
                for r in reactor_counts:
                    print(f"--- mix={mix} connections={c} reactors={r}",
                          file=sys.stderr)
                    benches.append(
                        run_point(cli, driver, mix, c, r, args, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    merged = {
        "context": {
            "executable": "latency_sweep",
            "seconds": args.seconds,
            "warmup_seconds": args.warmup_seconds,
            "serve_args": args.serve_arg,
            "grid": {"mixes": mixes, "connections": conns,
                     "reactors": reactor_counts},
        },
        "benchmarks": benches,
    }
    out_path = os.path.join(REPO, out)
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"wrote {out}", file=sys.stderr)

    table = markdown_table(benches)
    print(table)
    if args.update_experiments:
        update_experiments(table, args)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SweepError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
