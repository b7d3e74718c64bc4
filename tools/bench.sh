#!/usr/bin/env bash
# Benchmark runner: builds the headline paper benches, runs them with
# machine-readable row output (AFT_BENCH_JSON), and assembles the rows into
# BENCH_results.json — txn/s + p50/p99 per engine/config.
#
# Usage: tools/bench.sh [--smoke] [--out FILE]
#
#   --smoke   tiny op counts + aggressive time scale; finishes in about a
#             minute and exists to catch parallel-I/O regressions that
#             deadlock, crash, or serialize (each bench runs under `timeout`).
#             Also runs the benches that emit no JSON rows yet
#             (SMOKE_ONLY below), each failing the script on a non-zero exit.
#   --out     output path (default BENCH_results.json).
#
# Environment:
#   AFT_BENCH_BUILD_DIR   build tree to (re)use             (default: build)
#   AFT_BENCH_TIMEOUT     per-bench timeout in seconds      (default: 900;
#                                                            smoke: 120)

set -euo pipefail
cd "$(dirname "$0")/.."

OUT=BENCH_results.json
SMOKE=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) SMOKE=1 ;;
    --out) OUT="$2"; shift ;;
    *) echo "usage: tools/bench.sh [--smoke] [--out FILE]" >&2; exit 2 ;;
  esac
  shift
done

BUILD_DIR="${AFT_BENCH_BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"
BENCHES=(bench_fig3_end_to_end bench_fig6_txn_length bench_fig7_single_node bench_parallel_io bench_net bench_local_engine bench_obs bench_ablation_pruning)
# Benches that emit no JSON rows yet (the paper benches on the workload
# harness, and the google-benchmark micro-ops suite): smoke runs them only
# to prove they still terminate cleanly.
SMOKE_ONLY=(bench_fig2_io_latency bench_fig4_caching_skew bench_fig5_rw_ratio bench_fig8_distributed bench_fig9_gc bench_fig10_fault bench_micro_ops)
TARGETS=("${BENCHES[@]}")
if [[ $SMOKE -eq 1 ]]; then
  TARGETS+=("${SMOKE_ONLY[@]}")
fi

if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi
cmake --build "$BUILD_DIR" -j "$JOBS" --target "${TARGETS[@]}"

ROWS="$(mktemp)"
trap 'rm -f "$ROWS"' EXIT

if [[ $SMOKE -eq 1 ]]; then
  # Tiny runs: 3 requests per client, simulated latencies compressed 50x.
  # Numbers are meaningless; the point is that every bench terminates and
  # emits its rows (a deadlocked executor trips the timeout, a serialized
  # one shows up as a CI-time regression).
  export AFT_BENCH_REQUESTS=3
  export AFT_TIME_SCALE=0.02
  # Closed-loop throughput rows feed the bench_gate check (within-run
  # pipelined-vs-baseline speedup), so give them slightly more ops than the
  # latency rows — still sub-minute, but far less noisy than 3-op runs.
  export AFT_BENCH_TPUT_OPS=50
  TIMEOUT="${AFT_BENCH_TIMEOUT:-120}"
  MODE=smoke
else
  TIMEOUT="${AFT_BENCH_TIMEOUT:-900}"
  MODE=full
fi

for bench in "${TARGETS[@]}"; do
  echo
  echo "==== running $bench (timeout ${TIMEOUT}s) ===="
  args=()
  envs=()
  runs=1
  if [[ $SMOKE -eq 1 && "$bench" == bench_obs ]]; then
    # The google-benchmark microbench suite honors CLI flags, not the env
    # knobs above; cut per-config time so smoke stays well inside the timeout.
    args+=(--benchmark_min_time=0.05)
  fi
  if [[ $SMOKE -eq 1 && "$bench" == bench_micro_ops ]]; then
    # Run to terminate only: min time 0 runs each benchmark for one
    # iteration (google-benchmark 1.7), about 10 ms for the whole suite.
    args+=(--benchmark_min_time=0)
  fi
  if [[ $SMOKE -eq 1 && "$bench" == bench_fig3_end_to_end ]]; then
    # Its Aft/Plain p50 ratios (S3, DynamoDB, Redis) feed bench_gate's
    # paper-shape stage (ceilings 1.15 for S3, 1.5 for the others). At the
    # smoke settings above the S3 ratio is mostly noise:
    # three runs of one build on a 4-vCPU host gave 1.24-1.49. At 20
    # requests and scale 0.1 the same build gave 1.15-1.29, and a build
    # whose S3 commit takes two sequential PUTs gave 1.18-1.23 (healthy S3
    # reads 0.9-1.0). The Redis ratio still
    # read 1.55 in one run under host load (1.25-1.31 in quiet runs), so
    # smoke runs the bench three times and the gate takes the median run's
    # ratio. About 2 s per run.
    envs+=(AFT_TIME_SCALE=0.1 AFT_BENCH_REQUESTS=20)
    runs=3
  fi
  # bench_ablation_pruning needs no settings of its own: at the smoke
  # exports above (3 requests per client, scale 0.02) its Zipf 2.0 row
  # feeds bench_gate's pruning stage.
  if [[ " ${SMOKE_ONLY[*]} " == *" $bench "* ]]; then
    # Short timeline runs (Figs 9, 10), few clients (Figs 8-10) and a small
    # key space (Fig 4 loads 100k keys by default, ~30 s): each bench takes
    # 0.02-1 s at these settings.
    envs+=(AFT_BENCH_DURATION_SEC=3 AFT_BENCH_CLIENTS=8 AFT_BENCH_CLIENTS_PER_NODE=4
           AFT_BENCH_KEYS=2000)
  fi
  if [[ $SMOKE -eq 1 && "$bench" == bench_fig10_fault ]]; then
    # Its failure timeline only dips when the surviving nodes saturate, which
    # takes its default 150 clients, and at a compressed time scale host
    # scheduling noise swamps the dip; 3 s in real time shows the kill, the
    # dip and the recovery in 0.1 s rows (about 3 s).
    envs+=(AFT_TIME_SCALE=1.0 AFT_BENCH_CLIENTS=150)
  fi
  for ((run = 0; run < runs; run++)); do
    env AFT_BENCH_JSON="$ROWS" ${envs[@]+"${envs[@]}"} \
      timeout "$TIMEOUT" "$BUILD_DIR/bench/$bench" ${args[@]+"${args[@]}"}
  done
done

for bench in "${BENCHES[@]}"; do
  row_bench="${bench#bench_}"
  if ! grep -q "\"bench\":\"${row_bench}\"" "$ROWS"; then
    echo "error: $bench emitted no rows" >&2
    exit 1
  fi
done

{
  printf '{\n'
  printf '  "mode": "%s",\n' "$MODE"
  printf '  "generated_utc": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "commit": "%s",\n' "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  printf '  "results": [\n'
  awk 'NR > 1 { printf ",\n" } { printf "    %s", $0 } END { printf "\n" }' "$ROWS"
  printf '  ]\n'
  printf '}\n'
} > "$OUT"

echo
echo "wrote $OUT ($(grep -c '"bench"' "$OUT") rows, mode=$MODE)"
