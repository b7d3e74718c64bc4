#include "src/common/histogram.h"

#include <algorithm>

namespace aft {

std::vector<double> ExponentialBoundaries(double start, double factor, size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

const std::vector<double>& DefaultLatencyBoundariesMs() {
  static const std::vector<double> kBounds = ExponentialBoundaries(0.25, 2.0, 17);
  return kBounds;
}

const std::vector<double>& FineLatencyBoundariesMs() {
  static const std::vector<double> kBounds = ExponentialBoundaries(0.001, 1.01, 2033);
  return kBounds;
}

size_t BucketIndex(std::span<const double> boundaries, double value) {
  // First boundary >= value (le semantics: value <= boundary).
  const auto it = std::lower_bound(boundaries.begin(), boundaries.end(), value);
  return static_cast<size_t>(it - boundaries.begin());
}

}  // namespace aft
