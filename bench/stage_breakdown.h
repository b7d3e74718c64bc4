// Per-stage commit breakdown reporting for bench mains: snapshots one node's
// aft_commit_stage_seconds children (plus its end-to-end commit histogram)
// on construction, and Report() prints + emits the DELTA as per-commit stage
// means alongside the e2e mean — BENCH_results.json rows a reader can
// reconcile by eye ("stage sum ≈ 87% of e2e").
//
// Reconciliation contract (docs/OBSERVABILITY.md "Latency attribution"): the
// stages are disjoint nested slices of the e2e commit window, so the stage
// sum is AT MOST the e2e mean; the uncovered remainder is unattributed
// commit-path work (record building, cache updates, index inserts). Report()
// fails the process when the sum overshoots e2e by more than 5% + 50 µs per
// commit — an overshoot means a stage got double-counted, never noise.

#ifndef BENCH_STAGE_BREAKDOWN_H_
#define BENCH_STAGE_BREAKDOWN_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_common.h"
#include "src/common/histogram.h"
#include "src/core/aft_node.h"
#include "src/obs/metrics.h"

namespace aft {
namespace bench {

class StageBreakdown {
 public:
  StageBreakdown(std::string bench, const std::string& node_id)
      : bench_(std::move(bench)), stages_(CommitStageHistograms::ForNode(node_id)) {
    e2e_ = obs::MetricsRegistry::Global().GetHistogram(
        "aft_node_commit_latency_ms", "CommitTransaction wall latency (ms)",
        DefaultLatencyBoundariesMs(), {{"node", node_id}});
    Capture(&start_);
  }

  // Prints the per-stage means for everything committed since construction
  // and emits one "<row_prefix> stage <name>" JSON row per stage plus a
  // "<row_prefix> stage total" row carrying (stage sum, e2e mean) in the
  // (p50_ms, p99_ms) columns. Re-arms for a following window.
  void Report(const std::string& row_prefix) {
    State now;
    Capture(&now);
    const uint64_t commits = now.e2e_count - start_.e2e_count;
    if (commits == 0) {
      return;
    }
    const double e2e_mean_ms = (now.e2e_sum_ms - start_.e2e_sum_ms) / commits;
    double stage_sum_ms = 0;
    std::printf("  %s per-stage breakdown (%llu commits, mean ms/txn):\n", row_prefix.c_str(),
                static_cast<unsigned long long>(commits));
    for (int i = 0; i < kNumStages; ++i) {
      const double mean_ms = (now.stage_sum_s[i] - start_.stage_sum_s[i]) * 1e3 / commits;
      stage_sum_ms += mean_ms;
      std::printf("    %-20s %9.4f ms\n", kStageNames[i], mean_ms);
      EmitJsonRow(bench_, row_prefix + " stage " + kStageNames[i], mean_ms, mean_ms, 0.0,
                  commits);
    }
    const double coverage = e2e_mean_ms > 0 ? 100.0 * stage_sum_ms / e2e_mean_ms : 0;
    std::printf("    %-20s %9.4f ms   (e2e %9.4f ms, %.0f%% attributed)\n", "stage sum",
                stage_sum_ms, e2e_mean_ms, coverage);
    EmitJsonRow(bench_, row_prefix + " stage total", stage_sum_ms, e2e_mean_ms, 0.0, commits);
    if (stage_sum_ms > e2e_mean_ms * 1.05 + 0.05) {
      std::fprintf(stderr,
                   "FATAL: stage sum %.4f ms exceeds e2e %.4f ms — a commit stage is being "
                   "double-counted\n",
                   stage_sum_ms, e2e_mean_ms);
      std::exit(1);
    }
    start_ = now;
  }

 private:
  static constexpr int kNumStages = 5;
  static constexpr const char* kStageNames[kNumStages] = {
      "txn_lock_wait", "data_flush", "barrier", "record_write", "gossip_publish"};

  struct State {
    double stage_sum_s[kNumStages] = {};
    double e2e_sum_ms = 0;
    uint64_t e2e_count = 0;
  };

  void Capture(State* out) {
    obs::Histogram* children[kNumStages] = {stages_.txn_lock_wait, stages_.data_flush,
                                            stages_.barrier, stages_.record_write,
                                            stages_.gossip_publish};
    for (int i = 0; i < kNumStages; ++i) {
      out->stage_sum_s[i] = children[i]->Sum();
    }
    out->e2e_sum_ms = e2e_->Sum();
    out->e2e_count = e2e_->Count();
  }

  const std::string bench_;
  CommitStageHistograms stages_;
  obs::Histogram* e2e_;
  State start_;
};

}  // namespace bench
}  // namespace aft

#endif  // BENCH_STAGE_BREAKDOWN_H_
