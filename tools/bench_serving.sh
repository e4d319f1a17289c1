#!/usr/bin/env bash
# Serving-path benchmark: boots `ldapbound serve` with the wire front
# end on an ephemeral port, replays tools/load_driver's mixed
# closed-loop workload (snapshot searches, pings, add/delete pairs,
# validates) across many processes × connections, and writes the
# google-benchmark-shaped report that CI's serving regression gate
# consumes (tools/check_bench_regression.py --metric
# items_per_second:higher --metric p99_ns:lower).
#
#   tools/bench_serving.sh             # baseline run: 4×256 conns, 10 s
#   tools/bench_serving.sh --smoke     # CI smoke: 2×64 conns, 3 s
#   tools/bench_serving.sh --out FILE  # report path (default
#                                      # BENCH_serving.json, or
#                                      # BENCH_serving.smoke.json with
#                                      # --smoke)
#
# The build tree defaults to build/; override with BUILD=build-foo.
# EXTRA_SERVE_ARGS adds flags to the `serve` invocation (CI's durable
# smoke sets "--wal-dir DIR --trace-out FILE"). On exit the script sends
# `quit` and allows serve 5 s to drain and write its trace before the kill.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${BUILD:-build}"
processes=4
connections=256
duration=10
warmup=2
out=""
smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) smoke=1 ;;
    --out) out="$2"; shift ;;
    *) echo "usage: tools/bench_serving.sh [--smoke] [--out FILE]" >&2
       exit 2 ;;
  esac
  shift
done
if [ "$smoke" = 1 ]; then
  processes=2; connections=64; duration=3; warmup=1
  out="${out:-BENCH_serving.smoke.json}"
else
  out="${out:-BENCH_serving.json}"
fi

cli="$BUILD/tools/ldapbound"
driver="$BUILD/tools/load_driver"
for bin in "$cli" "$driver"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $BUILD)" >&2
    exit 2
  fi
done

workdir="$(mktemp -d)"
serve_pid=""
cleanup() {
  # Politely ask the command loop to exit; kill if it lingers.
  if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2>/dev/null; then
    echo quit >&3 2>/dev/null || true
    for _ in $(seq 1 50); do
      kill -0 "$serve_pid" 2>/dev/null || break
      sleep 0.1
    done
    kill "$serve_pid" 2>/dev/null || true
  fi
  exec 3>&- 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

# The serve loop reads commands from stdin until EOF, so feed it from a
# fifo we hold open for the whole run.
mkfifo "$workdir/stdin"
# shellcheck disable=SC2086  # EXTRA_SERVE_ARGS is intentionally split
"$cli" serve data/serving.schema data/serving.ldif \
  --monitor-port 0 --port 0 \
  --max-connections $((processes * connections + 64)) \
  --net-workers 4 ${EXTRA_SERVE_ARGS:-} \
  <"$workdir/stdin" >"$workdir/serve.out" 2>"$workdir/serve.err" &
serve_pid=$!
exec 3>"$workdir/stdin"

# Scrape the ephemeral wire port from the second stdout line.
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^wire listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$workdir/serve.out")"
  [ -n "$port" ] && break
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    echo "error: serve died during startup:" >&2
    cat "$workdir/serve.err" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "error: never saw 'wire listening' from serve" >&2
  exit 1
fi

echo "serving on :$port — driving ${processes}x${connections} connections" \
  "for ${duration}s (+${warmup}s warmup)" >&2
"$driver" --port "$port" \
  --processes "$processes" --connections "$connections" \
  --seconds "$duration" --warmup-seconds "$warmup" \
  --out "$out"

echo "wrote $out" >&2
