#include "src/common/stats.h"

#include <algorithm>

namespace aft {

ThroughputTimeline::ThroughputTimeline(Clock& clock, Duration window)
    : clock_(clock), window_(window) {}

void ThroughputTimeline::Start() {
  MutexLock lock(mu_);
  start_ = clock_.Now();
  buckets_.clear();
  total_ = 0;
}

void ThroughputTimeline::RecordEvent() {
  const TimePoint now = clock_.Now();
  MutexLock lock(mu_);
  if (now < start_) {
    return;
  }
  const size_t idx = static_cast<size_t>((now - start_) / window_);
  if (idx >= buckets_.size()) {
    buckets_.resize(idx + 1, 0);
  }
  ++buckets_[idx];
  ++total_;
}

std::vector<ThroughputTimeline::Row> ThroughputTimeline::Report() const {
  MutexLock lock(mu_);
  return RowsLocked(0, 1);
}

std::vector<ThroughputTimeline::Row> ThroughputTimeline::ReportMerged(
    uint64_t min_events_per_row) const {
  MutexLock lock(mu_);
  size_t first = 0;
  while (first < buckets_.size() && buckets_[first] == 0) {
    ++first;
  }
  const size_t span = buckets_.size() - first;
  // ceil(span / k) rows share total_ events.
  size_t k = 1;
  while (k < span && total_ < min_events_per_row * ((span + k - 1) / k)) {
    ++k;
  }
  return RowsLocked(first, k);
}

std::vector<ThroughputTimeline::Row> ThroughputTimeline::RowsLocked(size_t first,
                                                                    size_t k) const {
  const double window_sec = ToMillis(window_) / 1000.0;
  std::vector<Row> rows;
  rows.reserve((buckets_.size() - first + k - 1) / k);
  for (size_t i = first; i < buckets_.size(); i += k) {
    const size_t end = std::min(i + k, buckets_.size());
    uint64_t events = 0;
    for (size_t j = i; j < end; ++j) {
      events += buckets_[j];
    }
    rows.push_back(Row{static_cast<double>(i) * window_sec,
                       static_cast<double>(events) / (static_cast<double>(end - i) * window_sec)});
  }
  return rows;
}

uint64_t ThroughputTimeline::total() const {
  MutexLock lock(mu_);
  return total_;
}

}  // namespace aft
