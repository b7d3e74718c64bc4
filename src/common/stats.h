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

  // Report for a run too short to fill its windows: rows start at the first
  // window holding an event, and every `k` adjacent windows are merged into
  // one row, with k the smallest factor at which the rows average at least
  // `min_events_per_row` events. A run that already fills its windows keeps
  // them (k = 1).
  std::vector<Row> ReportMerged(uint64_t min_events_per_row) const;

  // Total events recorded since Start().
  uint64_t total() const;

 private:
  // Rows of `k` windows each, from window `first` on.
  std::vector<Row> RowsLocked(size_t first, size_t k) const REQUIRES(mu_);

  Clock& clock_;
  const Duration window_;
  mutable Mutex mu_;
  TimePoint start_ GUARDED_BY(mu_){};
  std::vector<uint64_t> buckets_ GUARDED_BY(mu_);
  uint64_t total_ GUARDED_BY(mu_) = 0;
};

}  // namespace aft

#endif  // SRC_COMMON_STATS_H_
