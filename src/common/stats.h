// Measurement utilities for the benchmark harness.
//
// `ThroughputTimeline` buckets completion events into fixed windows for the
// time-series figures (Fig 9, Fig 10). Latency percentiles come from an
// obs::Histogram over FineLatencyBoundariesMs() (src/obs/metrics.h).

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstdint>
#include <vector>

#include "src/common/clock.h"
#include "src/common/mutex.h"

namespace aft {

// Buckets events into fixed-width windows of simulated time; `Report`
// produces (window start sec, events/sec) rows.
class ThroughputTimeline {
 public:
  // `window` is the bucket width.
  ThroughputTimeline(Clock& clock, Duration window = Millis(1000));

  // Marks the experiment start; events before Start are dropped.
  void Start();

  // Records one completion event at the current simulated time.
  void RecordEvent();

  struct Row {
    double window_start_sec;
    double events_per_sec;
  };
  std::vector<Row> Report() const;

  // Total events recorded since Start().
  uint64_t total() const;

 private:
  Clock& clock_;
  const Duration window_;
  mutable Mutex mu_;
  TimePoint start_ GUARDED_BY(mu_){};
  std::vector<uint64_t> buckets_ GUARDED_BY(mu_);
  uint64_t total_ GUARDED_BY(mu_) = 0;
};

}  // namespace aft

#endif  // SRC_COMMON_STATS_H_
