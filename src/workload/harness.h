// Closed-loop multi-client harness.
//
// Spawns N client threads; each synchronously issues requests through a
// RequestRunner (invoke, wait, invoke again — the paper's client model,
// §6.5.1), recording per-request latency, auditing anomalies, and optionally
// feeding a throughput timeline for the time-series figures.

#ifndef SRC_WORKLOAD_HARNESS_H_
#define SRC_WORKLOAD_HARNESS_H_

#include <cstdint>
#include <string>

#include "src/baseline/anomaly_checker.h"
#include "src/common/clock.h"
#include "src/common/stats.h"
#include "src/workload/runners.h"

namespace aft {

struct HarnessOptions {
  size_t num_clients = 10;
  // Each client stops after this many completed requests...
  size_t requests_per_client = 1000;
  // ...or when this much simulated time has elapsed (whichever comes first;
  // zero = no time limit). Used by the timeline experiments (Figs 9 & 10).
  Duration max_duration = Duration::zero();
  uint64_t seed = 42;
  // Audit every transaction log with the anomaly checker.
  bool check_anomalies = true;
};

struct HarnessResult {
  // Per-request latency of the completed requests, in simulated ms.
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t ryw_anomalies = 0;
  uint64_t fr_anomalies = 0;
  double elapsed_sec = 0;        // Simulated seconds.
  double throughput_tps = 0;     // Completed requests per simulated second.

  std::string ToString() const;
};

// Runs the workload to completion. `timeline` (optional) receives one event
// per completed request.
HarnessResult RunClients(Clock& clock, RequestRunner& runner, const HarnessOptions& options,
                         ThroughputTimeline* timeline = nullptr);

}  // namespace aft

#endif  // SRC_WORKLOAD_HARNESS_H_
