#!/usr/bin/env python3
"""The repository benchmark: durable 10^5-entry white-pages serving.

    python3 perfbench/run.py --workload browse|churn|mixed --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run builds `ldapbound` and the
benchmark's client from the checkout's sources into .bench_build/
(or $CARGO_TARGET_DIR). Each run then

  1. generates the seeded directory (MakeWhitePagesInstance, 100,009
     entries) as LDIF, with its ground truth;
  2. boots the real `ldapbound serve` on it (data/white-pages.schema,
     a fresh --wal-dir, group commit, every serve flag explicit) several
     times, timing spawn -> first answered ping (setup_s);
  3. drives the last server over the wire from one client thread with
     four connections: a warm-up, an open loop at the workload's fixed
     offered rate (perfbench/config.json), then a closed loop;
  4. checks every answer, and for churn/mixed stops the server and runs
     `ldapbound recover` on its WAL, which must report the directory
     legal with exactly the acknowledged entry count.

--trace 0 prints the end-to-end metrics; --trace 1 additionally replays
the same op stream in process with a span around every library call and
prints the per-layer metrics. The last stdout line is the result object;
the line before it holds the run's context and sample counts.
"""

import argparse
import json
import os
import platform
import re
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("browse", "churn", "mixed")
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


class BenchError(Exception):
    """The run cannot produce a valid result (exit 2)."""


class WrongAnswer(Exception):
    """The program answered incorrectly (exit 1, no metrics)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_config():
    with open(os.path.join(BENCH_DIR, "config.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(config):
    """Configures (once) and builds the CLI and the client; returns paths."""
    for rel in ("src/CMakeLists.txt", "tools/ldapbound_cli.cc", config["schema"]):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise BenchError("not an ldapbound checkout: %s is missing" % rel)
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as build_log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                          "-DCMAKE_BUILD_TYPE=" + config["build_type"]])
        steps.append(["cmake", "--build", out, "-j4", "--target", "ldapbound",
                      "perfbench_client"])
        for step in steps:
            if subprocess.call(step, stdout=build_log, stderr=build_log) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                raise BenchError("build failed: " + " ".join(step))
    return (os.path.join(out, "ldapbound_tools", "ldapbound"),
            os.path.join(out, "perfbench_client"))


def context(config, args):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "build_type": config["build_type"],
        "schema": config["schema"],
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "durability": config["durability"],
        "group_commit_batch": config["serve_flags"]["--group-commit-batch"],
        "group_commit_hold_us": config["serve_flags"]["--group-commit-hold-us"],
        "net_reactors": config["serve_flags"]["--net-reactors"],
        "net_workers": config["serve_flags"]["--net-workers"],
        "serve_flags": config["serve_flags"],
        "client": config["client"],
        "offered_rates_ops_per_s": config["rates_ops_per_s"],
        "co_located_driver": config["co_located_driver"],
        "cpu_affinity": config["cpu_affinity"],
    }


def pin(role):
    """preexec_fn that confines a child to its share of the CPUs."""
    cpus = set(load_config()["cpu_affinity"][role]) & os.sched_getaffinity(0)
    return (lambda: os.sched_setaffinity(0, cpus)) if cpus else None


def ping(port, timeout):
    """One wire ping round trip (kPing, request id 1)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(struct.pack("<IBQ", 9, 0, 1))
        data = b""
        while len(data) < 4 or len(data) < 4 + struct.unpack("<I", data[:4])[0]:
            chunk = s.recv(4096)
            if not chunk:
                raise BenchError("server closed the connection on ping")
            data += chunk
        op, rid, code = struct.unpack("<BQB", data[4:14])
        if op != 0 or rid != 1 or code != 0:
            raise BenchError("bad ping reply")


class Server:
    """A running `ldapbound serve` with the wire front end."""

    def __init__(self, cli, config, ldif, wal_dir, boot_timeout=150):
        flags = []
        for name, value in config["serve_flags"].items():
            flags += [name, value]
        cmd = [cli, "serve", os.path.join(ROOT, config["schema"]), ldif,
               "--monitor-port", "0", "--port", "0", "--wal-dir", wal_dir] + flags
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True,
                                     preexec_fn=pin("server"))
        self.wal_dir = wal_dir
        self.port = self.monitor_port = None
        # A blocking readline under a watchdog: the two port lines arrive
        # in one flush, so select() on the pipe would miss the second.
        watchdog = threading.Timer(boot_timeout, self.proc.kill)
        watchdog.start()
        try:
            while self.port is None:
                line = self.proc.stdout.readline()
                if not line:
                    raise BenchError("server exited during boot (rc=%s)"
                                     % self.proc.wait())
                m = re.match(r"(monitor|wire) listening on 127\.0\.0\.1:(\d+)", line)
                if m and m.group(1) == "monitor":
                    self.monitor_port = int(m.group(2))
                elif m:
                    self.port = int(m.group(2))
            ping(self.port, timeout=30)
        except BaseException:
            self.kill()
            raise
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - start

    def stop(self):
        """Clean shutdown through the command loop; returns the exit code."""
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            rc = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not stop")
        self.proc.stdout.close()
        return rc

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def run_json(cmd, what, timeout):
    """Runs a client subcommand whose last stdout line is a JSON object."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, preexec_fn=pin("client"))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode == 3 and result is not None:
        raise WrongAnswer("%s: %d wrong answers, e.g. %s"
                          % (what, result["wrong"], result["wrong_examples"]))
    if proc.returncode != 0 or result is None:
        raise BenchError("%s failed (rc=%d): %s"
                         % (what, proc.returncode, proc.stderr.strip()[-2000:]))
    return result


def recover(cli, wal_dir):
    """`ldapbound recover`: (seconds, frames replayed, entries, legal)."""
    start = time.perf_counter()
    proc = subprocess.run([cli, "recover", wal_dir], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=150)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise WrongAnswer("recover failed: " + proc.stderr.strip()[-500:])
    frames = re.search(r"frames:\s+(\d+) replayed", proc.stderr)
    entries = re.search(r"entries:\s+(\d+), (\w+)", proc.stderr)
    if not frames or not entries:
        raise BenchError("unexpected recover output: " + proc.stderr[-500:])
    return elapsed, int(frames.group(1)), int(entries.group(1)), entries.group(2)


def stage_mean_us(scrape, stage):
    count = scrape.get('ldapbound_wire_stage_ns_count{stage="%s"}' % stage, 0)
    total = scrape.get('ldapbound_wire_stage_ns_sum{stage="%s"}' % stage, 0)
    return total / count / 1e3 if count else None


def metric(value, unit):
    return {"value": value, "unit": unit}


def cpu_us_per_op(phase, windows=None):
    """Server CPU per request: the median over the phase's sub-windows."""
    return statistics.median(
        cpu * 1e6 / ops for cpu, ops in
        list(zip(phase["window_server_cpu_s"], phase["window_ops"]))[:windows])


def end_to_end(load, setups):
    """The gated metrics: set-up time, server CPU per request and memory.

    Client-observed latency and throughput are reported per layer instead
    (client.*): on a shared VM they follow the hypervisor's steal, while
    the CPU a request costs the server does not.
    """
    open_ = load["phases"]["open"]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "cpu_us_per_op": metric(cpu_us_per_op(open_), "us"),
        "server_rss_mb": metric(open_["server_rss_kb"] / 1024.0, "MB"),
    }


def client_metrics(load):
    """What the client saw: medians over open-loop and one-second windows."""
    open_ = load["phases"]["open"]
    closed = load["phases"]["closed"]
    windows = open_["window_lookup_us"]
    kinds = open_["latency_us"]
    return {
        "client.lookup_p50_us": metric(
            statistics.median(w["p50"] for w in windows), "us"),
        "client.lookup_p99_us": metric(p99(kinds["lookup"]), "us"),
        "client.scan_p50_us": metric(kinds["scan"]["p50"], "us"),
        "client.page_p50_us": metric(kinds["page"]["p50"], "us"),
        "client.closed_loop_ops_per_s": metric(
            statistics.median(closed["window_ops"][:full_seconds(closed)]), "1/s"),
        "server.closed_loop_cpu_us_per_op": metric(
            cpu_us_per_op(closed, full_seconds(closed)), "us"),
    }


def full_seconds(closed):
    """The closed loop's whole one-second windows (the last may be cut)."""
    return max(1, int(closed["window_s"] + 1e-6))


def p99(summary):
    """A p99 needs 1,000 samples: ten beyond it."""
    if summary["n"] < 1000:
        raise BenchError("a p99 over %d samples; it needs 1000" % summary["n"])
    return summary["p99"]


def per_layer(load, replay, setups):
    open_ = load["phases"]["open"]
    probe = load["phases"].get("probe", {})
    scrape = open_["scrape"]
    commit_source = scrape
    if not scrape.get("ldapbound_wal_group_commit_batch_size_count"):
        commit_source = probe.get("scrape", {})
    batch_n = commit_source.get("ldapbound_wal_group_commit_batch_size_count", 0)
    batch_sum = commit_source.get("ldapbound_wal_group_commit_batch_size_sum", 0)
    frames = scrape.get("ldapbound_wal_frames_appended_total", 0)
    lateness = open_["lateness_us"]
    out = client_metrics(load)
    out.update({
        "net.ping_p50_us": metric(open_["latency_us"]["ping"]["p50"], "us"),
        "net.queue_wait_us": metric(stage_mean_us(scrape, "queue_wait"), "us"),
        "net.write_back_us": metric(stage_mean_us(scrape, "write_back"), "us"),
        "net.commit_wait_us": metric(stage_mean_us(commit_source, "commit_wait"),
                                     "us"),
        "server.group_batch_mean": metric(batch_sum / batch_n if batch_n else None,
                                          "count"),
        "server.wal_frames_per_op": metric(frames / open_["completed"], "count"),
        "gen.lateness_p50_us": metric(lateness["p50"], "us"),
        "gen.lateness_p99_us": metric(p99(lateness), "us"),
        "gen.cpu_share": metric(open_["client_cpu_s"] / open_["window_s"], "frac"),
    })
    spans = replay["layers"]
    for name, (key, unit) in REPLAY_METRICS.items():
        out[name] = metric(spans[key], unit)
    accounted = sum(spans[k] for k in ("create_ms", "import_ms",
                                       "enable_wal_ms", "enable_snapshots_ms"))
    out["setup.unaccounted_frac"] = metric(
        1.0 - accounted / 1e3 / statistics.median(setups), "frac")
    out["server.recover_us_per_frame"] = metric(
        spans["recover_us_per_frame"], "us")
    return out


# Per-layer metrics read straight from the replay's span summary:
# name -> (replay key, unit).
REPLAY_METRICS = {
    "ldap.load_ldif_ms": ("load_ldif_ms", "ms"),
    "consistency.create_ms": ("create_ms", "ms"),
    "core.check_content_ms": ("check_content_ms", "ms"),
    "core.check_structure_ms": ("check_structure_ms", "ms"),
    "core.check_keys_ms": ("check_keys_ms", "ms"),
    "server.import_ms": ("import_ms", "ms"),
    "server.enable_wal_ms": ("enable_wal_ms", "ms"),
    "model.enable_snapshots_ms": ("enable_snapshots_ms", "ms"),
    "model.pin_ns": ("pin_ns", "ns"),
    "query.lookup_us": ("lookup_us", "us"),
    "query.scan_us": ("scan_us", "us"),
    "query.page_us": ("page_us", "us"),
    "query.cpu_share": ("query_cpu_share", "frac"),
    "update.commit_add_us": ("commit_add_us", "us"),
    "update.commit_delete_us": ("commit_delete_us", "us"),
    "update.reject_us": ("reject_us", "us"),
    "update.commit_drift": ("commit_drift", "ratio"),
    "model.publish_us": ("publish_us", "us"),
    "model.id_capacity_ratio": ("id_capacity_ratio", "ratio"),
    "server.changelog_encode_us": ("changelog_encode_us", "us"),
    "server.wal_append_us": ("wal_append_us", "us"),
    "server.wal_bytes_per_commit": ("wal_bytes_per_commit", "bytes"),
    "server.facade_overhead_us": ("facade_overhead_us", "us"),
    "trace.overhead_frac": ("overhead_frac", "frac"),
}


def run(args):
    config = load_config()
    ctx = context(config, args)
    cli, client = build(config)
    rate = config["rates_ops_per_s"][args.workload]
    open_s = args.seconds * config["open_share"]
    closed_s = args.seconds - open_s
    boots = config["setup_boots"]
    if args.trace:
        # The traced run spends its time on the in-process replay; its wire
        # phases only feed the scraped and client-side per-layer metrics.
        trace = config["trace"]
        open_s, closed_s, boots = trace["open_s"], trace["closed_s"], 1

    work = os.path.join(build_dir(), "runs", "%s-%d-%d" % (args.workload,
                                                           args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    server = None
    try:
        # A fixed reference computation, timed around the measurements: a
        # slow host shows here too, so comparisons can tell the two apart.
        host_ref = [run_json([client, "calibrate"], "calibrate", 60)["calibrate_s"]
                    for _ in range(3)]
        generated = run_json([client, "gen", "--schema",
                              os.path.join(ROOT, config["schema"]),
                              "--seed", str(args.seed), "--out", work], "gen", 120)
        ctx["entries"] = generated["entries"]
        ldif = os.path.join(work, "directory.ldif")
        truth = os.path.join(work, "truth.tsv")

        # Set-up time: boot several fresh servers; serve on the last one.
        setups = []
        for k in range(boots):
            server = Server(cli, config, ldif, os.path.join(work, "wal%d" % k))
            setups.append(server.setup_s)
            if k + 1 < boots:
                server.stop()
                shutil.rmtree(server.wal_dir, ignore_errors=True)
                server = None

        load_cmd = [client, "load", "--truth", truth, "--workload", args.workload,
                    "--seed", str(args.seed), "--port", str(server.port),
                    "--monitor-port", str(server.monitor_port),
                    "--server-pid", str(server.proc.pid), "--rate", str(rate),
                    "--warmup", str(config["warmup_s"]), "--open", str(open_s),
                    "--closed", str(closed_s),
                    "--window-lookups", str(config["open_window_lookups"]),
                    "--connections", str(config["client"]["connections"]),
                    "--page-size", str(config["client"]["page_size"])]
        if args.trace:
            load_cmd += ["--probe", str(trace["probe_s"])]
        if args.inject_wrong:
            load_cmd += ["--inject-wrong", "1"]
        load = run_json(load_cmd, "load", 150)

        host_ref += [run_json([client, "calibrate"], "calibrate", 60)["calibrate_s"]
                     for _ in range(3)]
        wal_dir = server.wal_dir
        if server.stop() != 0:
            raise BenchError("server exited uncleanly")
        server = None
        check_durability(args, cli, generated["entries"], load, wal_dir)

        lateness = load["phases"]["open"]["lateness_us"]
        if lateness["p99"] > config["lateness_p99_limit_us"]:
            raise BenchError("invalid run: the generator ran %.0f us late at p99 "
                             "(limit %d us)" % (lateness["p99"],
                                                config["lateness_p99_limit_us"]))

        if args.trace:
            replay = run_json([client, "replay", "--schema",
                               os.path.join(ROOT, config["schema"]), "--ldif", ldif,
                               "--truth", truth, "--workload", args.workload,
                               "--seed", str(args.seed), "--rate", str(rate),
                               "--open", str(open_s),
                               "--page-size", str(config["client"]["page_size"]),
                               "--drift-pairs", str(trace["drift_pairs"]),
                               "--budget", str(trace["replay_s"]),
                               "--dir", os.path.join(work, "replay"),
                               "--spans-out", spans_path(args)],
                              "replay", 170)
            metrics = per_layer(load, replay, setups)
        else:
            metrics = end_to_end(load, setups)
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(load["phases"][p]["attempted"] for p in ("open", "closed"))
    failed = sum(load["phases"][p]["failed"] for p in ("open", "closed"))
    for name, m in metrics.items():
        if not METRIC_NAME.match(name) or m["value"] is None:
            raise BenchError("metric %s has no value" % name)
    open_ = load["phases"]["open"]
    latency = {kind: s for kind, s in open_["latency_us"].items() if s["n"]}
    detail = {"context": ctx, "setup_s": setups,
              "host_reference_s": statistics.median(host_ref),
              "open_loop_latency_us": latency,
              "open_loop_lateness_us": open_["lateness_us"],
              "open_loop_deferred": open_["deferred"],
              "open_loop_windows": {
                  "lookup_p50_us": [w["p50"] for w in open_["window_lookup_us"]],
                  "lookup_p90_us": [w["p90"] for w in open_["window_lookup_us"]],
                  "lookup_p95_us": [w["p95"] for w in open_["window_lookup_us"]],
                  "lookup_p99_us": [w["p99"] for w in open_["window_lookup_us"]],
                  "server_cpu_s": open_["window_server_cpu_s"],
                  "ops": open_["window_ops"]},
              "closed_loop_window_ops": load["phases"]["closed"]["window_ops"],
              "client": client_metrics(load),
              "closed_loop_ops": load["phases"]["closed"]["completed"],
              "acked_adds": load["acked_adds"],
              "acked_deletes": load["acked_deletes"],
              "planted_illegal": load["planted_illegal"],
              "illegal_rejected": load["illegal_rejected"]}
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    save_result(args, detail, result)
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)


def check_durability(args, cli, entries_at_start, load, wal_dir):
    frames = sum(p["scrape"].get("ldapbound_wal_frames_appended_total", 0)
                 for name, p in load["phases"].items() if name != "probe")
    if args.workload == "browse":
        if frames != 0:
            raise WrongAnswer("browse wrote %d WAL frames" % frames)
        return
    seconds, replayed, entries, verdict = recover(cli, wal_dir)
    expected = entries_at_start + load["acked_adds"] - load["acked_deletes"]
    if verdict != "legal" or entries != expected:
        raise WrongAnswer("recovered %d entries (%s); acknowledged writes imply %d"
                          % (entries, verdict, expected))
    log("durability: recovered %d frames, %d entries, legal, in %.2fs"
        % (replayed, entries, seconds))


def spans_path(args):
    out = os.path.join(build_dir(), "traces")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, "%s-seed%d.spans.tsv" % (args.workload, args.seed))


def save_result(args, detail, result):
    out = os.path.join(build_dir(), "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                        args.trace))
    with open(path, "w") as f:
        json.dump(dict(detail, result=result), f, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong", action="store_true",
                        help="expect a wrong answer once (tests the checker)")
    args = parser.parse_args()
    try:
        run(args)
    except WrongAnswer as e:
        log("WRONG ANSWER: %s" % e)
        return 1
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("error: %s" % e)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
