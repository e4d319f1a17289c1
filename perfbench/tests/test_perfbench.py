#!/usr/bin/env python3
"""Tests of the benchmark itself (not of ldapbound).

    python3 perfbench/tests/test_perfbench.py

Builds the client on first use, like perfbench/run.py. The wire tests run
the load generator against a small in-process fake server that answers
from the generator's ground truth, so they take seconds; one test boots
the real server to check that a wrong answer fails a whole run.
"""

import json
import math
import os
import shutil
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run as bench  # noqa: E402

CONFIG = bench.load_config()
CLI = CLIENT = None


def setUpModule():
    global CLI, CLIENT
    CLI, CLIENT = bench.build(CONFIG)


class Scratch:
    """A temporary directory inside the build directory."""

    def __enter__(self):
        os.makedirs(bench.build_dir(), exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="test-", dir=bench.build_dir())
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


def gen(out, seed):
    subprocess.run([CLIENT, "gen", "--schema",
                    os.path.join(bench.ROOT, CONFIG["schema"]), "--seed", str(seed),
                    "--out", out], check=True, stdout=subprocess.DEVNULL)


def read(path):
    with open(path, "rb") as f:
        return f.read()


def schedule(truth, workload, seed):
    return subprocess.run([CLIENT, "schedule", "--truth", truth, "--workload",
                           workload, "--seed", str(seed), "--rate", "2000",
                           "--seconds", "2"], check=True,
                          stdout=subprocess.PIPE).stdout


def wire_string(body, pos):
    (n,) = struct.unpack_from("<I", body, pos)
    return body[pos + 4:pos + 4 + n].decode(), pos + 4 + n


class FakeServer:
    """Speaks the wire protocol for pings, lookups, adds and deletes.

    Adds are answered after `add_delay_s`; everything else at once.
    Planted illegal adds get a non-retryable kIllegal. With
    `wrong_lookups`, lookups of present uids come back empty.
    """

    def __init__(self, add_delay_s=0.0, wrong_lookups=False):
        self.add_delay_s = add_delay_s
        self.wrong_lookups = wrong_lookups
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(16)
        self.port = self.sock.getsockname()[1]
        self.threads = []
        self.timers = []
        self.stopping = False
        accept = threading.Thread(target=self._accept, daemon=True)
        accept.start()
        self.threads.append(accept)

    def close(self):
        self.stopping = True
        for timer in self.timers:
            timer.cancel()
        self.sock.close()

    def _accept(self):
        while not self.stopping:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            t = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            t.start()
            self.threads.append(t)

    def _serve(self, conn):
        lock = threading.Lock()
        buf = b""

        def reply(op, rid, code=0, body=b""):
            payload = struct.pack("<BQBBI", op, rid, code, 0, 0) + body
            with lock:
                try:
                    conn.sendall(struct.pack("<I", len(payload)) + payload)
                except OSError:
                    pass

        while True:
            try:
                chunk = conn.recv(65536)
            except OSError:
                return
            if not chunk:
                return
            buf += chunk
            while len(buf) >= 4:
                (n,) = struct.unpack_from("<I", buf)
                if len(buf) < 4 + n:
                    break
                frame, buf = buf[4:4 + n], buf[4 + n:]
                op, rid = struct.unpack_from("<BQ", frame)
                body = frame[9:]
                if op == 1:  # search: str base | u8 scope | str filter
                    _, pos = wire_string(body, 0)
                    flt, _ = wire_string(body, pos + 1)
                    uid = flt[len("(uid="):-1]
                    hits = 0 if uid.startswith("nx") else 1
                    if self.wrong_lookups:
                        hits = 1 - hits
                    reply(op, rid, body=struct.pack("<I", hits) + b"\0" * 8 * hits)
                elif op == 2:  # add
                    dn, _ = wire_string(body, 0)
                    if dn.startswith("uid=bad") or ",uid=p" in dn:
                        reply(op, rid, code=4)
                    else:
                        timer = threading.Timer(self.add_delay_s, reply, (op, rid))
                        self.timers.append(timer)
                        timer.start()
                else:  # ping, delete
                    reply(op, rid)


def run_load(truth, port, workload, extra=()):
    proc = subprocess.run([CLIENT, "load", "--truth", truth, "--workload", workload,
                           "--seed", "5", "--port", str(port), "--rate", "400",
                           "--warmup", "0.1", "--open", "1.5", "--closed", "0.3",
                           "--window-lookups", "1000000"] + list(extra),
                          stdout=subprocess.PIPE, text=True, timeout=60)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class SeededInputsTest(unittest.TestCase):
    def test_same_seed_gives_identical_ldif_and_schedule(self):
        with Scratch() as a, Scratch() as b:
            gen(a, 7)
            gen(b, 7)
            for name in ("directory.ldif", "truth.tsv"):
                self.assertEqual(read(os.path.join(a, name)),
                                 read(os.path.join(b, name)), name)
            truth = os.path.join(a, "truth.tsv")
            for workload in bench.WORKLOADS:
                first = schedule(truth, workload, 7)
                self.assertTrue(first)
                self.assertEqual(first, schedule(truth, workload, 7), workload)
                self.assertNotEqual(first, schedule(truth, workload, 8), workload)


class WireLoadTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dir = Scratch()
        path = cls.dir.__enter__()
        gen(path, 5)
        cls.truth = os.path.join(path, "truth.tsv")

    @classmethod
    def tearDownClass(cls):
        cls.dir.__exit__(None, None, None)

    def test_latency_is_timed_from_the_scheduled_send_time(self):
        # Adds take 200 ms; the read-your-write lookups that depend on
        # them are answered at once but sent late, so their latency must
        # include the wait for the add.
        server = FakeServer(add_delay_s=0.2)
        try:
            rc, result = run_load(self.truth, server.port, "churn")
        finally:
            server.close()
        self.assertEqual(rc, 0, result["wrong_examples"])
        open_ = result["phases"]["open"]
        self.assertGreater(open_["deferred"], 0)
        self.assertGreater(open_["latency_us"]["lookup"]["top"], 100000)
        self.assertGreater(open_["latency_us"]["add"]["p50"], 190000)
        self.assertLess(open_["latency_us"]["ping"]["p50"], 100000)

    def test_percentile_rule(self):
        server = FakeServer()
        try:
            rc, result = run_load(self.truth, server.port, "churn")
        finally:
            server.close()
        self.assertEqual(rc, 0, result["wrong_examples"])
        checked = 0
        for phase in result["phases"].values():
            for summary in list(phase["latency_us"].values()) + [phase["lateness_us"]]:
                n, top = summary["n"], summary["top_pct"]
                if top == 0:
                    self.assertLess(n, 20)
                    continue
                rank = math.ceil(top / 100 * n - 1e-9)
                self.assertGreaterEqual(n - rank, 10, summary)
                if summary["p99"]:
                    self.assertGreaterEqual(n, 1000)
                checked += 1
        self.assertGreater(checked, 3)
        # A reported p99 refuses fewer than 1,000 samples.
        with self.assertRaises(bench.BenchError):
            bench.p99({"n": 999, "p99": 1.0})
        self.assertEqual(bench.p99({"n": 1000, "p99": 1.0}), 1.0)

    def test_wrong_answer_fails_the_client(self):
        server = FakeServer(wrong_lookups=True)
        try:
            rc, result = run_load(self.truth, server.port, "churn")
        finally:
            server.close()
        self.assertEqual(rc, 3)
        self.assertGreater(result["wrong"], 0)


def fake_load():
    summary = {"n": 1500, "p50": 100.0, "p99": 900.0,
               "top_pct": 99, "top": 900.0}
    phase = {
        "attempted": 100, "completed": 100, "failed": 0, "deferred": 0,
        "window_s": 4.0, "client_cpu_s": 0.4, "server_cpu_s": 1.0,
        "server_rss_kb": 180000, "lateness_us": summary,
        "latency_us": {k: summary for k in
                       ("lookup", "scan", "page", "add", "delete", "ping")},
        "window_lookup_us": [summary, summary],
        "window_server_cpu_s": [0.5, 0.5], "window_ops": [50, 50],
        "scrape": {
            'ldapbound_wire_stage_ns_sum{stage="%s"}' % s: 1e6
            for s in ("queue_wait", "write_back", "commit_wait")},
    }
    for s in ("queue_wait", "write_back", "commit_wait"):
        phase["scrape"]['ldapbound_wire_stage_ns_count{stage="%s"}' % s] = 10
    phase["scrape"]["ldapbound_wal_group_commit_batch_size_count"] = 5
    phase["scrape"]["ldapbound_wal_group_commit_batch_size_sum"] = 9
    closed = dict(phase, window_ops=[1000, 1100, 1050, 990])
    return {"phases": {"open": phase, "closed": closed}}


class MetricNamesTest(unittest.TestCase):
    def test_names_match_the_contract_and_the_output(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for group in ("end_to_end", "per_layer"):
            for m in spec[group]:
                self.assertRegex(m["name"], r"^[A-Za-z0-9_.-]+$")
        load = fake_load()
        e2e = bench.end_to_end(load, [1.0, 2.0, 3.0])
        self.assertEqual(set(e2e), {m["name"] for m in spec["end_to_end"]})
        replay = {"layers": {key: 1.0 for key, _ in bench.REPLAY_METRICS.values()}}
        replay["layers"]["recover_us_per_frame"] = 1.0
        layers = bench.per_layer(load, replay, [1.0])
        self.assertEqual(set(layers), {m["name"] for m in spec["per_layer"]})
        for m in list(spec["end_to_end"]) + list(spec["per_layer"]):
            out = e2e.get(m["name"]) or layers[m["name"]]
            self.assertEqual(out["unit"], m["unit"], m["name"])


class WholeRunTest(unittest.TestCase):
    def test_wrong_answer_fails_the_run_without_metrics(self):
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                               "--workload", "browse", "--seed", "3",
                               "--seconds", "4", "--trace", "0", "--inject-wrong"],
                              cwd=bench.ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=300)
        self.assertEqual(proc.returncode, 1, proc.stderr[-2000:])
        self.assertNotIn('"metrics"', proc.stdout)
        self.assertIn("WRONG ANSWER", proc.stderr)

    def test_refuses_to_run_outside_a_checkout(self):
        with Scratch() as root:
            shutil.copytree(BENCH_DIR, os.path.join(root, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), root)
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "browse", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=root, env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
