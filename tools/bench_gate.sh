#!/usr/bin/env bash
# Throughput regression gate over one bench JSON file (tools/bench.sh output).
#
# Gates on a WITHIN-RUN ratio, not on absolute ops/sec: bench_net runs every
# throughput workload with the pipelined client ("event": 4 connections x 32
# in flight) and the single-flight "baseline" client (1 connection, 1 in
# flight) against the same event-loop server in the same process on the same
# machine, so the speedup of pipelined over baseline is independent of how
# fast the runner happens to be. (Comparing absolute numbers against a
# checked-in file from another machine shifts the ratio with runner speed —
# it fails spuriously on slow runners and masks regressions on fast ones.)
#
# The gate takes the GEOMETRIC MEAN of the per-row speedups of the "event"
# rows at high client counts (>= MIN_CLIENTS, default 16 — where pipelining
# is designed to win; the 1-client rows measure per-op latency, not pipeline
# capacity) and fails when it drops below MIN_SPEEDUP. A serialized event
# loop or a single-flighted client pulls the geomean to ~1.0x (x0.99 when the
# "event" config was forced to 1 connection x 1 in flight), far below the
# floor; the healthy client read x3.45 in a smoke run. Zero matching row pairs is an error — a gate that silently compares
# nothing is worse than no gate.
#
# A second within-run gate bounds latency-attribution overhead (bench_obs's
# "commit attribution off|on" rows): attribution-on p50 commit latency must
# stay within MAX_ATTR_RATIO (env, default 1.05) of attribution-off.
#
# A third, absolute gate covers allocation count: bench_net's
# "inproc commit" row carries allocs_per_txn — heap allocations per commit
# on the measuring thread. Unlike ops/sec this IS machine-independent (the
# code path allocates what it allocates), so it gates against a checked-in
# ceiling. The zero-copy commit pipeline (PR 7) brought it from ~39 to ~6;
# the ceiling holds the line just above the measured value so a single
# reintroduced per-commit allocation fails visibly. The "inproc put+commit"
# row counts the allocations of Put and Commit together, so work moved from
# the commit into Put cannot pass for a saving; it is held to its own fixed
# ceiling, MAX_PUT_COMMIT_ALLOCS below.
#
# A fourth, paper-shape gate holds the claim the shim is built on — cheap
# correctness: for each engine of bench_fig3_end_to_end (S3, DynamoDB,
# Redis), the "Aft" p50 over the "Plain" p50, both measured in the same
# run, must stay at or below its ceiling: MAX_FIG3_S3_OVERHEAD (1.15) for
# S3, MAX_FIG3_OVERHEAD (1.5) for DynamoDB and Redis (the paper's Fig 3
# puts S3 and Redis near 1.2 and DynamoDB near 1.0); when the file holds
# several runs, the median run's ratio is the one gated.
#
# A fifth, paper-shape gate holds §4.1's pruning claim: bench_ablation_pruning's
# "zipf 2.0 on" row must report at least MIN_PRUNED_PCT (20) of its gossiped
# records pruned as superseded within their interval.
#
# Usage: tools/bench_gate.sh CURRENT.json [MIN_SPEEDUP] [MIN_CLIENTS] [MAX_ALLOCS]
#
#   MIN_SPEEDUP   geomean (pipelined / baseline) ops-per-sec floor,
#                 default 1.5.
#   MIN_CLIENTS   only rows with at least this many clients count,
#                 default 16.
#   MAX_ALLOCS    allocations-per-txn ceiling on the "inproc commit" row,
#                 default 8.0.

set -euo pipefail

if [[ $# -lt 1 || $# -gt 4 ]]; then
  echo "usage: tools/bench_gate.sh CURRENT.json [MIN_SPEEDUP] [MIN_CLIENTS] [MAX_ALLOCS]" >&2
  exit 2
fi
CURRENT="$1"
MIN_SPEEDUP="${2:-1.5}"
MIN_CLIENTS="${3:-16}"
MAX_ALLOCS="${4:-8.0}"
# Fixed bounds (constants, not knobs): "inproc put+commit" allocations
# per transaction, the Fig 3 Aft/Plain p50 ratios and the pruning floor.
# Smoke measures the allocation rows over 3 transactions, so they move in
# steps of 1/3: 32 smoke-setting runs of bench_net read 8.0-10.0 (mostly
# 8.7), against 12.0-12.7 before Put stopped allocating a version write.
MAX_PUT_COMMIT_ALLOCS=11.0
MAX_FIG3_OVERHEAD=1.5
MAX_FIG3_S3_OVERHEAD=1.15
MIN_PRUNED_PCT=20

if [[ ! -f "$CURRENT" ]]; then
  echo "bench_gate: no such file: $CURRENT" >&2
  exit 2
fi

# One "<workload> <config> <clients>\t<ops/sec>" line per closed-loop row.
# The JSON is our own one-object-per-line format (tools/bench.sh), so sed is
# sufficient and the gate needs no JSON tooling on the CI image.
sed -nE 's/.*"row":"tput ([^"]*)".*"txn_per_s":([0-9.]+).*/\1\t\2/p' "$CURRENT" \
  | awk -F '\t' -v floor="$MIN_SPEEDUP" -v min_clients="$MIN_CLIENTS" '
  {
    # $1 is "<workload> <config> <N>c", e.g. "commit event 16c".
    split($1, f, " ");
    workload = f[1]; config = f[2]; clients = f[3] + 0;
    if (clients < min_clients) { next }
    key = workload "/" clients "c";
    if (config == "baseline")   { base[key] = $2 + 0 }
    else if (config == "event") { cur[key "/" config] = $2 + 0 }
  }
  END {
    for (k in cur) {
      split(k, p, "/");
      bkey = p[1] "/" p[2];
      if (!(bkey in base) || base[bkey] <= 0) { continue }
      ratio = cur[k] / base[bkey];
      n++;
      log_sum += log(ratio);
      printf "%-7s %-28s %10.0f -> %10.0f ops/s  (x%.2f vs single-flight)\n",
             (ratio < floor ? "slow" : "ok"), k, base[bkey], cur[k], ratio;
    }
    if (n == 0) {
      print "bench_gate: no pipelined/baseline throughput row pairs found" > "/dev/stderr";
      exit 1;
    }
    geomean = exp(log_sum / n);
    if (geomean < floor) {
      printf "bench_gate: FAIL — geomean pipelined-vs-baseline speedup x%.2f is below x%.2f (%d rows)\n",
             geomean, floor, n > "/dev/stderr";
      exit 1;
    }
    printf "bench_gate: PASS — geomean pipelined-vs-baseline speedup x%.2f over %d rows (floor x%.2f)\n",
           geomean, n, floor;
  }
'

# ---- attribution overhead ----------------------------------------------------
# Latency attribution (the per-stage aft_commit_stage_seconds decomposition)
# ships always-on, so its cost is gated like a regression: bench_obs runs the
# same CPU-bound 4-op commit loop with stage timing off and on in one process
# ("commit attribution off|on" rows, best-of-3 each) and attribution-on p50
# commit latency must stay within MAX_ATTR_RATIO of attribution-off (default
# 1.05 — at most 5% slower) plus 2 µs of absolute slack for timer/scheduler
# granularity at the µs commit scale of the zero-latency engine. p50 rather
# than throughput: the within-run median is far less exposed to scheduler
# noise on small CI runners, while a real regression (attribution suddenly
# costing tens of µs) still fails loudly. Same within-run philosophy as
# gate 1.
MAX_ATTR_RATIO="${MAX_ATTR_RATIO:-1.05}"
sed -nE 's/.*"row":"commit attribution (off|on)".*"p50_ms":([0-9.]+).*"txn_per_s":([0-9.]+).*/\1\t\2\t\3/p' "$CURRENT" \
  | awk -F '\t' -v ceil="$MAX_ATTR_RATIO" '
  { if ($1 == "off") { off = $2 + 0; off_tps = $3 + 0 } else { on = $2 + 0; on_tps = $3 + 0 } }  # last run wins
  END {
    if (off == 0 || on == 0) {
      print "bench_gate: no commit attribution on/off row pair found" > "/dev/stderr";
      exit 1;
    }
    limit = off * ceil + 0.002;
    if (on > limit) {
      printf "bench_gate: FAIL — attribution-on p50 %.4f ms exceeds %.4f ms (off p50 %.4f ms x%.2f + 2 µs)\n",
             on, limit, off, ceil > "/dev/stderr";
      exit 1;
    }
    printf "bench_gate: PASS — attribution-on p50 %.4f ms vs off %.4f ms (ceiling %.4f ms; tput %.0f -> %.0f txn/s)\n",
           on, off, limit, off_tps, on_tps;
  }
'

# ---- allocations-per-commit ceiling -----------------------------------------
# The file may hold several appended runs; the LAST row of each kind is the
# current one. Missing row (or a bench binary built without the counter) is
# an error for the same reason as zero throughput pairs above. Two commit
# paths are held to the same ceiling: "inproc commit" (bench_net, simulated
# engine) and "local commit" (bench_local_engine, the durable WAL engine —
# real writev + fdatasync must not cost heap allocations either); the
# "inproc put+commit" row has its own (see the header).
for gated in "inproc commit=$MAX_ALLOCS" "local commit=$MAX_ALLOCS" \
             "inproc put+commit=$MAX_PUT_COMMIT_ALLOCS"; do
  row="${gated%=*}"
  ceiling="${gated##*=}"
  row_re="${row//+/\\+}"
  sed -nE 's/.*"row":"'"$row_re"'".*"allocs_per_txn":([0-9.]+).*/\1/p' "$CURRENT" \
    | awk -v ceiling="$ceiling" -v row="$row" '
    { last = $1 + 0; n++ }
    END {
      if (n == 0) {
        printf "bench_gate: no \"%s\" allocs_per_txn row found\n", row > "/dev/stderr";
        exit 1;
      }
      if (last > ceiling) {
        printf "bench_gate: FAIL — %.1f allocations/txn on the %s path exceeds the %.1f ceiling\n",
               last, row, ceiling > "/dev/stderr";
        exit 1;
      }
      printf "bench_gate: PASS — %.1f allocations/txn on the %s path (ceiling %.1f)\n",
             last, row, ceiling;
    }
  '
done

# ---- paper shape: Fig 3 AFT-over-Plain overhead ------------------------------
# Within-run ratios like gates 1-2: each engine's two rows come from one
# bench_fig3 process on the same machine and the same seeded workload. The
# healthy path sits near 0.85-0.95x on S3 and 1.1-1.3x on DynamoDB and
# Redis at smoke settings. An S3 commit that takes two sequential PUTs
# (its payloads in version objects before the record, i.e.
# DirtyPlacement::kRound forced on SimS3) reads a 1.20x median on S3 in
# two smoke runs (1.18-1.23x per run), hence S3's own ceiling.
# tools/bench.sh --smoke runs this bench three
# times at a time scale and request count where the ratios are stable, and
# the gate takes each engine's median ratio over the runs (Plain row, then
# Aft row, per run): one run slowed by a burst of host load cannot fail it
# alone.
for engine in S3 DynamoDB Redis; do
  ceiling="$MAX_FIG3_OVERHEAD"
  if [[ "$engine" == S3 ]]; then
    ceiling="$MAX_FIG3_S3_OVERHEAD"
  fi
  sed -nE 's/.*"bench":"fig3_end_to_end","row":"'"$engine"' (Plain|Aft)","p50_ms":([0-9.]+).*/\1\t\2/p' "$CURRENT" \
    | awk -F '\t' -v ceil="$ceiling" -v engine="$engine" '
    # n indexes ratios[] from 0; left unset, the first run would land at
    # ratios[""] and drop out of the median.
    BEGIN { n = 0 }
    $1 == "Plain" { plain = $2 + 0 }
    $1 == "Aft" && plain > 0 {
      aft = $2 + 0
      ratio = aft / plain
      # Insertion sort: the runs are few.
      for (i = n; i > 0 && ratios[i - 1] > ratio; i--) ratios[i] = ratios[i - 1]
      ratios[i] = ratio
      runs = runs sprintf("%s x%.2f (%.1f / %.1f ms)", n ? "," : "", ratio, aft, plain)
      n++
      plain = 0
    }
    END {
      if (n == 0) {
        printf "bench_gate: no fig3 \"%s Plain\"/\"%s Aft\" row pair found\n",
               engine, engine > "/dev/stderr";
        exit 1;
      }
      median = n % 2 ? ratios[(n - 1) / 2] : (ratios[n / 2 - 1] + ratios[n / 2]) / 2;
      if (median > ceil) {
        printf "bench_gate: FAIL — Fig 3 %s Aft/Plain p50 median x%.2f over %d run(s) [%s] exceeds x%.2f\n",
               engine, median, n, runs, ceil > "/dev/stderr";
        exit 1;
      }
      printf "bench_gate: PASS — Fig 3 %s Aft/Plain p50 median x%.2f over %d run(s) [%s]; ceiling x%.2f\n",
             engine, median, n, runs, ceil;
    }
  '
done

# ---- paper shape: §4.1 supersedence pruning ----------------------------------
# Within-run like gates 1-2: the saving is pruned / (pruned + broadcast)
# records of one run. At Zipf 2.0 most commits hit a few hot keys and
# supersede each other within a gossip interval; a bus that gossips each
# commit on its own leaves nothing to prune (~5% at smoke settings, against
# ~50% when it gossips once per interval). The last row wins.
sed -nE 's/.*"bench":"ablation_pruning","row":"zipf 2.0 on".*"saved_pct":([0-9.]+).*/\1/p' "$CURRENT" \
  | awk -v floor="$MIN_PRUNED_PCT" '
  { last = $1 + 0; n++ }
  END {
    if (n == 0) {
      print "bench_gate: no ablation_pruning \"zipf 2.0 on\" row found" > "/dev/stderr";
      exit 1;
    }
    if (last < floor) {
      printf "bench_gate: FAIL — pruning saved %.1f%% of gossiped records at Zipf 2.0, below %.1f%%\n",
             last, floor > "/dev/stderr";
      exit 1;
    }
    printf "bench_gate: PASS — pruning saved %.1f%% of gossiped records at Zipf 2.0 (floor %.1f%%)\n",
           last, floor;
  }
'
