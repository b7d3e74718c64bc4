#include "src/common/stats.h"

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
  std::vector<Row> rows;
  rows.reserve(buckets_.size());
  const double window_sec = ToMillis(window_) / 1000.0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    rows.push_back(Row{static_cast<double>(i) * window_sec,
                       static_cast<double>(buckets_[i]) / window_sec});
  }
  return rows;
}

uint64_t ThroughputTimeline::total() const {
  MutexLock lock(mu_);
  return total_;
}

}  // namespace aft
