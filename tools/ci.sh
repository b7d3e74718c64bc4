#!/usr/bin/env bash
# CI entry point mirroring .github/workflows/ci.yml for environments without
# GitHub Actions. Runs the 3-way build/test matrix sequentially, then the
# clang-tidy job when the toolchain is present.
#
#   matrix leg 1: RelWithDebInfo            (plain build, full ctest)
#   matrix leg 2: AFT_SANITIZE=thread       (TSan, full ctest)
#   matrix leg 3: AFT_SANITIZE=address      (ASan+UBSan, full ctest)
#
# Each leg runs the full suite, then hammers the net transport suite (the
# server pool's interleavings vary run to run) and the WAL crash-recovery
# harness (kill -9 children, timing varies) a few extra times under the
# leg's sanitizer. The plain leg also runs every gtest binary twice in one
# process (tools/gtest_repeat.sh), which catches tests that leak
# process-global state into their own rerun.

set -u
cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
rc=0

leg() {  # leg <name> <build-dir> <gtest-repeat: 0|1> <extra cmake args...>
  local name="$1" dir="$2" repeat="$3"; shift 3
  printf '\n==== CI leg: %s ====\n' "$name"
  if cmake -B "$dir" -S . "$@" > /dev/null \
     && cmake --build "$dir" -j "$JOBS" 2>&1 | tail -5 \
     && (cd "$dir" && ctest --output-on-failure -j "$JOBS") \
     && (cd "$dir" && ctest --output-on-failure -R 'net_test' --repeat until-fail:3) \
     && (cd "$dir" && ctest --output-on-failure -R 'wal_recovery_test' --repeat until-fail:3) \
     && { [ "$repeat" = 0 ] || tools/gtest_repeat.sh "$dir"; }; then
    echo "[PASS] $name"
  else
    echo "[FAIL] $name"
    rc=1
  fi
}

leg "RelWithDebInfo" build-ci-rel 1 -DCMAKE_BUILD_TYPE=RelWithDebInfo

# Metrics smoke: boot the real binary with the HTTP exporter on a
# kernel-assigned port, drive real wire traffic through it
# (--smoke-traffic), and scrape /metrics + /traces + the health surface
# (/healthz /readyz /varz) over bash's /dev/tcp (the exporter answers one
# request per connection, Connection: close). Asserts the key families —
# including the per-stage commit decomposition — are present, the flag echo
# works, and the commit counter is monotone.
printf '\n==== CI leg: metrics smoke ====\n'
smoke_log="$(mktemp)"
build-ci-rel/src/net/aft_server --port 0 --metrics-port 0 --trace-sample 1 \
  --smoke-traffic 1000 > "$smoke_log" 2>&1 &
smoke_pid=$!
mport=""
for _ in $(seq 1 100); do
  mport="$(sed -n 's#.*http://127\.0\.0\.1:\([0-9]*\)/metrics.*#\1#p' "$smoke_log")"
  [ -n "$mport" ] && break
  sleep 0.1
done
scrape() {  # scrape <path>
  exec 3<>"/dev/tcp/127.0.0.1/$mport" || return 1
  printf 'GET %s HTTP/1.1\r\nHost: ci\r\n\r\n' "$1" >&3
  cat <&3
  exec 3<&- 3>&-
}
committed() {  # current value of the node's commit counter
  scrape /metrics | sed -n 's/^aft_node_txns_committed_total{[^}]*} //p'
}
smoke_ok=1
if [ -z "$mport" ]; then smoke_ok=0; fi
if [ "$smoke_ok" = 1 ]; then
  scrape /metrics > "$smoke_log.scrape"
  for family in \
      '^# TYPE aft_node_commit_latency_ms histogram' \
      '^aft_node_data_cache_hits_total' \
      '^aft_commit_set_cache_lookup_' \
      '^aft_commit_stage_seconds_bucket{[^}]*stage="gossip_publish"' \
      '^aft_commit_stage_seconds_bucket{[^}]*stage="data_flush"' \
      '^aft_commit_stage_seconds_bucket{[^}]*stage="record_write"' \
      '^aft_net_requests_inflight' \
      '^aft_storage_api_calls_total' \
      '^aft_gossip_\|^aft_net_rpc_latency_ms_bucket'; do
    grep -q "$family" "$smoke_log.scrape" || { echo "  missing: $family"; smoke_ok=0; }
  done
  scrape /traces | grep -q '^\[' || smoke_ok=0
  # Health surface: liveness always 200, readiness 200 once the node booted
  # (gossip idle counts as live on a single-node cluster), /varz echoes every
  # CLI flag as resolved.
  scrape /healthz | grep -q '^ok' || { echo "  /healthz not ok"; smoke_ok=0; }
  scrape /readyz | grep -q '200 OK' || { echo "  /readyz not ready"; smoke_ok=0; }
  scrape /varz | grep -q '^flag.smoke_traffic: 1000' \
    || { echo "  /varz missing flag echo"; smoke_ok=0; }
  # Monotone under load: the commit counter must strictly increase.
  before="$(committed)"
  after="$before"
  for _ in $(seq 1 50); do
    sleep 0.2
    after="$(committed)"
    [ -n "$after" ] && [ "$after" -gt "${before:-0}" ] && break
  done
  if [ -z "$after" ] || [ "$after" -le "${before:-0}" ]; then
    echo "  commit counter not monotone: before=$before after=$after"
    smoke_ok=0
  fi
fi
if [ "$smoke_ok" = 1 ]; then
  echo "[PASS] metrics smoke"
else
  echo "[FAIL] metrics smoke"
  sed 's/^/  server: /' "$smoke_log"
  rc=1
fi
kill "$smoke_pid" 2>/dev/null; wait "$smoke_pid" 2>/dev/null
rm -f "$smoke_log" "$smoke_log.scrape"

TSAN_OPTIONS='halt_on_error=1' \
  leg "TSan" build-ci-tsan 0 -DAFT_SANITIZE=thread
ASAN_OPTIONS='detect_leaks=1' UBSAN_OPTIONS='print_stacktrace=1' \
  leg "ASan+UBSan" build-ci-asan 0 -DAFT_SANITIZE=address

if command -v clang-tidy >/dev/null 2>&1; then
  printf '\n==== CI leg: clang-tidy ====\n'
  cmake -B build-ci-rel -S . > /dev/null   # compile commands export globally
  mapfile -t files < <(find src tests bench examples -name '*.cc' -o -name '*.cpp')
  if clang-tidy -p build-ci-rel --quiet "${files[@]}"; then
    echo "[PASS] clang-tidy"
  else
    echo "[FAIL] clang-tidy"
    rc=1
  fi
else
  echo "[SKIP] clang-tidy (not installed)"
fi

# aftlint: repo-specific invariant checks (mirrors the aftlint CI job).
# Pure-python text backend, so this leg runs on every machine.
printf '\n==== CI leg: aftlint ====\n'
if python3 tools/aftlint/aftlint.py --self-test \
   && python3 tools/aftlint/aftlint.py --backend text --check-docs; then
  echo "[PASS] aftlint"
else
  echo "[FAIL] aftlint"
  rc=1
fi

# perfbench: unit tests of the benchmark's metric and check code (mirrors
# the perfbench-self-test CI job; stdlib only, no build).
printf '\n==== CI leg: perfbench self-test ====\n'
if python3 perfbench/run.py --self-test; then
  echo "[PASS] perfbench self-test"
else
  echo "[FAIL] perfbench self-test"
  rc=1
fi

# clang-format gate; format.sh exits 0 with a notice when absent.
printf '\n==== CI leg: clang-format ====\n'
if tools/format.sh --check; then
  echo "[PASS] clang-format"
else
  echo "[FAIL] clang-format"
  rc=1
fi

exit $rc
