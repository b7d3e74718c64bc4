// The benchmark's workloads. Each builds a deployment through the shim's
// public API, drives it with a closed loop of client threads for a fixed
// time, checks what it observed, and hands back raw measurements; run.py
// turns those into the reported metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/spans.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // Scratch space (LocalEngine data dirs live here).
};

// One closed-loop phase. Latencies are wall-clock milliseconds of the
// requests that completed; `time_scale` on RunResult converts them to the
// workload's reporting unit.
struct Phase {
  std::string name;
  std::vector<double> latency_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t request_retries = 0;
  double elapsed_s = 0;  // Wall clock, first request sent to last one done.
};

struct RunResult {
  // Wall seconds per reported second: the simulated clock's scale for
  // fig3_s3, 1 for the real-time workloads.
  double time_scale = 1.0;
  std::vector<double> setup_s;
  std::vector<Phase> phases;
  // The phase whose counters and spans are reported, and the one it is
  // compared against (Plain for overhead_ratio, untraced for the tracing
  // overhead); empty when there is none.
  std::string main_phase;
  std::string baseline_phase;

  // Correctness.
  uint64_t audited_txns = 0;  // Committed transactions audited in the main phase.
  uint64_t ryw_anomalies = 0;  // Over every phase.
  uint64_t fr_anomalies = 0;
  uint64_t durability_keys = 0;  // rmw_local: keys read back after reopening.
  uint64_t durability_lost = 0;  // ...whose last acked write was missing.
  // rmw_local: keys the recovered node read at a version older than their
  // last acked write (its bootstrap loads only the newest commit records).
  uint64_t recovered_stale = 0;
  double recovery_ms = 0;        // rmw_local: reopen + node Start().

  // Counters from the layers' own stats, read right before and right after
  // the main phase (process-cumulative values; run.py takes the delta).
  std::map<std::string, double> before;
  std::map<std::string, double> after;
  // The metrics registry's exposition text at the same two instants.
  std::string registry_before;
  std::string registry_after;

  std::vector<Span> spans;  // Main phase, traced runs only.
};

// Returns false (with a message on stderr) when the run could not be set up
// or driven; correctness findings are reported in the result instead.
bool RunFig3S3(const RunOptions& options, RunResult* result);
bool RunFig3Tcp(const RunOptions& options, RunResult* result);
bool RunRmwLocal(const RunOptions& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
