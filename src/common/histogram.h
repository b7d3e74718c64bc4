// Bucket boundaries for obs::Histogram (src/obs/metrics.h), the one latency
// histogram in the shim, its benches and its tests.
//
// A histogram is defined by a sorted vector of inclusive upper bucket
// boundaries; one implicit +Inf bucket catches everything beyond the last
// boundary. Quantiles are estimated by locating the target rank's bucket and
// interpolating linearly within it, so an estimate's error is bounded by the
// relative width of its bucket. Node metrics use the coarse doubling
// boundaries (few buckets, cheap to export); bench and workload-harness
// latencies use the fine 1%-growth boundaries, whose estimates are within 1%.

#ifndef SRC_COMMON_HISTOGRAM_H_
#define SRC_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <span>
#include <vector>

namespace aft {

// `count` boundaries starting at `start`, each `factor` times the previous.
std::vector<double> ExponentialBoundaries(double start, double factor, size_t count);

// Coarse boundaries for operator-facing latency metrics (Prometheus
// exposition): 0.25ms .. ~16s, doubling. 17 buckets + the implicit +Inf.
const std::vector<double>& DefaultLatencyBoundariesMs();

// Fine boundaries for bench and harness percentiles: 1us .. ~10min, 1% growth
// (2033 boundaries, 16 KB of counters per histogram; worst-case 1% relative
// quantile error).
const std::vector<double>& FineLatencyBoundariesMs();

// Index of the bucket `value` falls into: the first boundary with
// value <= boundary (Prometheus `le` semantics), or boundaries.size() for
// the +Inf bucket.
size_t BucketIndex(std::span<const double> boundaries, double value);

}  // namespace aft

#endif  // SRC_COMMON_HISTOGRAM_H_
