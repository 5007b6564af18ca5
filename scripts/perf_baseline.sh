#!/bin/sh
# perf_baseline.sh — record the simulator's own wall-clock performance.
#
# Builds ompss-bench, times `-experiment all -quick` once sequentially and
# once with the parallel harness, and writes the numbers to BENCH_harness.json
# at the repo root so every PR leaves a perf trajectory behind it.
#
# Strictly POSIX sh: timing comes from ompss-bench's own -walltime flag
# (no `date +%s%3N`), and core counting uses getconf (no `nproc`).
#
# Usage: sh scripts/perf_baseline.sh
set -e

cd "$(dirname "$0")/.."
BIN=$(mktemp /tmp/ompss-bench.XXXXXX)
WT=$(mktemp /tmp/ompss-walltime.XXXXXX)
SERVE_BIN=$(mktemp /tmp/ompss-serve.XXXXXX)
SERVE_OUT=$(mktemp /tmp/ompss-serve-out.XXXXXX)
trap 'rm -f "$BIN" "$WT" "$SERVE_BIN" "$SERVE_OUT"' EXIT

go build -o "$BIN" ./cmd/ompss-bench

# json_int FIELD FILE: extract an integer field from one-line JSON.
json_int() {
    sed -n "s/.*\"$1\":\\(-\\{0,1\\}[0-9][0-9]*\\).*/\\1/p" "$2"
}

CORES=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$CORES" -le 1 ]; then
    echo "perf-baseline: WARNING: single-core host; parallel_ms measures the" >&2
    echo "perf-baseline: harness overhead, not a speedup — read serial_ms and" >&2
    echo "perf-baseline: stress_quick_tasks_per_sec, ignore the parallel row" >&2
fi

"$BIN" -experiment all -quick -parallel 1 -walltime "$WT" >/dev/null
SERIAL_MS=$(json_int ms "$WT")

"$BIN" -experiment all -quick -parallel 0 -walltime "$WT" >/dev/null
PARALLEL_MS=$(json_int ms "$WT")
PARALLEL_WORKERS=$(json_int workers "$WT")

# Zero-fault resilience run: the fault subsystem armed but injecting nothing.
# The "armed zero-fault overhead" row tracks the retry machinery's cost over
# a clean run; the budget is <2% so reliability never taxes the fault-free
# paper experiments (fig9 et al.).
RES_OUT=$("$BIN" -experiment resilience -quick -walltime "$WT")
RES_MS=$(json_int ms "$WT")
ARMED_OVERHEAD_PCT=$(echo "$RES_OUT" | awk '/armed zero-fault overhead/ {print $(NF-1)}')
[ -n "$ARMED_OVERHEAD_PCT" ] || ARMED_OVERHEAD_PCT=-1

# Submission stress: host-side tasks/sec of the quick grid's batch row
# (10^5 tasks, strided order). bench_guard.sh gates future runs on it.
STRESS_OUT=$("$BIN" -experiment stress -quick)
STRESS_TPS=$(echo "$STRESS_OUT" | awk '/ov=0 submit=batch/ && !/lookahead/ {print $(NF-1)}')
if [ -z "$STRESS_TPS" ]; then
    echo "perf-baseline: stress run reported no 'ov=0 submit=batch' row" >&2
    exit 1
fi

# Weak-scaling manager layer: virtual-time tasks/sec of the 64-node
# sharded row of the quick weakscale grid. Deterministic (simulated
# time, not host time), so a drift here means the manager cost model or
# the sharded routing changed — bench_guard.sh gates future runs on it.
WSCALE_OUT=$("$BIN" -experiment weakscale -quick)
WSCALE_TPS=$(echo "$WSCALE_OUT" | awk '/n=64 sharded/ && !/dirops/ {print $(NF-1)}')
if [ -z "$WSCALE_TPS" ]; then
    echo "perf-baseline: weakscale run reported no 'n=64 sharded' row" >&2
    exit 1
fi

# Power-capped heterogeneous frontier: virtual-time tasks/sec of the
# uncapped heft Matmul on the mixed GTX480+Tesla cluster. Deterministic
# (simulated time), so a drift means the cost model, HEFT binding, or the
# mixed-cluster presets changed — bench_guard.sh gates future runs on it.
POWERCAP_OUT=$("$BIN" -experiment powercap -quick)
POWERCAP_TPS=$(echo "$POWERCAP_OUT" | awk '/heft uncapped throughput/ {print $(NF-1)}')
if [ -z "$POWERCAP_TPS" ]; then
    echo "perf-baseline: powercap run reported no 'heft uncapped throughput' row" >&2
    exit 1
fi

# Resident serving layer: the canonical load test (`make loadtest`
# defaults — 1000 clients x 5 requests over 8 distinct configs, warm
# burst against a seeded cache). Records the warm-cache requests/sec;
# bench_guard.sh gates future runs on it.
go build -o "$SERVE_BIN" ./cmd/ompss-serve
"$SERVE_BIN" -selftest > "$SERVE_OUT"
SERVE_RPS=$(sed -n 's/.*"warm_rps": *\([0-9][0-9.]*\).*/\1/p' "$SERVE_OUT")
SERVE_HIT=$(sed -n 's/.*"hit_rate": *\([0-9][0-9.]*\).*/\1/p' "$SERVE_OUT")
if [ -z "$SERVE_RPS" ] || [ -z "$SERVE_HIT" ]; then
    echo "perf-baseline: serve selftest reported no warm_rps/hit_rate" >&2
    exit 1
fi

cat > BENCH_harness.json <<EOF
{
  "date": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "host_cores": $CORES,
  "go_version": "$(go env GOVERSION)",
  "command": "ompss-bench -experiment all -quick",
  "serial_ms": $SERIAL_MS,
  "parallel_ms": $PARALLEL_MS,
  "parallel_workers": $PARALLEL_WORKERS,
  "resilience_quick_ms": $RES_MS,
  "armed_zero_fault_overhead_pct": $ARMED_OVERHEAD_PCT,
  "armed_overhead_budget_pct": 2.0,
  "stress_quick_tasks_per_sec": $STRESS_TPS,
  "weakscale_64_tasks_per_sec": $WSCALE_TPS,
  "powercap_heft_tasks_per_sec": $POWERCAP_TPS,
  "serve_load": "1000 clients x 5 requests, 8 distinct configs",
  "serve_warm_rps": $SERVE_RPS,
  "serve_warm_hit_rate": $SERVE_HIT
}
EOF

echo "serial ${SERIAL_MS}ms, parallel(${PARALLEL_WORKERS} workers) ${PARALLEL_MS}ms, resilience ${RES_MS}ms (armed overhead ${ARMED_OVERHEAD_PCT}%), stress ${STRESS_TPS} tasks/s, weakscale(64,sharded) ${WSCALE_TPS} tasks/s, powercap(heft) ${POWERCAP_TPS} tasks/s, serve ${SERVE_RPS} warm req/s (hit rate ${SERVE_HIT}) -> BENCH_harness.json"
