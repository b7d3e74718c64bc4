// Runtime metrics: low-overhead counters, gauges, and fixed-boundary
// histograms behind a process-wide registry with labeled families, rendered
// in the Prometheus text exposition format (docs/OBSERVABILITY.md).
//
// Hot-path cost model:
//   * Counter::Increment — one relaxed fetch_add on a cache-line-padded lane
//     picked by a hash of the calling thread, so concurrent writers do not
//     ping-pong a shared line. Reads sum the lanes (reads are rare: scrape
//     time only).
//   * Histogram::Observe — one binary search over the boundary vector plus
//     one relaxed bucket fetch_add and one relaxed CAS-add into a sharded
//     sum lane. No locks anywhere on the write path.
//   * Gauge — a single atomic (gauges track levels, not rates; their writers
//     are far less frequent than counter increments).
//
// Registration (GetCounter / GetGauge / GetHistogram) takes a mutex and is
// meant for construction time: components look their instruments up once and
// cache the returned pointer. Pointers are stable for the registry's
// lifetime; instruments are never deleted (a family child re-requested with
// the same name+labels is the same object, so counters accumulate across
// component restarts — exactly what a scraper expects of a process).
//
// Callback metrics wrap pre-existing atomics (e.g. `StorageCounters`) or
// compute point-in-time values (cache sizes) at exposition time without
// touching the owner's hot path. They are the one registration that must be
// UNregistered — the callback captures the owning component — so
// RegisterCallback returns an RAII handle. Re-registering the same
// name+labels replaces the previous callback (the old owner is gone); the
// superseded handle's destructor then does nothing.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/mutex.h"

namespace aft {
namespace obs {

// Label set for one family child, e.g. {{"node", "aft-0"}, {"method", "Get"}}.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

namespace internal {

inline constexpr size_t kLanes = 16;

// One cache-line-padded atomic lane.
struct alignas(64) Lane {
  std::atomic<uint64_t> value{0};
};

// Stable per-thread lane index.
size_t ThisThreadLane();

}  // namespace internal

// Monotonically increasing counter, sharded across lanes.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) {
    lanes_[internal::ThisThreadLane()].value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& lane : lanes_) {
      total += lane.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  internal::Lane lanes_[internal::kLanes];
};

// A level that can move both ways. Stored as a double (Prometheus gauges are
// doubles) in one atomic word.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { bits_.store(Encode(v), std::memory_order_relaxed); }

  void Add(double delta) {
    uint64_t old = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(old, Encode(Decode(old) + delta),
                                        std::memory_order_relaxed)) {
    }
  }
  void Sub(double delta) { Add(-delta); }

  double Value() const { return Decode(bits_.load(std::memory_order_relaxed)); }

 private:
  static uint64_t Encode(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double Decode(uint64_t bits) {
    double v = 0;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::atomic<uint64_t> bits_{0x0ULL};  // 0.0
};

// Fixed-boundary histogram with atomic buckets and lane-sharded sum.
class Histogram {
 public:
  explicit Histogram(std::vector<double> boundaries);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  uint64_t Count() const;
  double Sum() const;
  // Per-bucket cumulative counts, one per boundary plus the +Inf bucket —
  // the shape the Prometheus `le` series wants.
  std::vector<uint64_t> CumulativeCounts() const;
  // Estimate of the q-quantile (q in [0, 1]) of the observed values: the
  // nearest-rank bucket, linearly interpolated within its bounds (the first
  // bucket's lower bound is 0). The +Inf bucket answers the last boundary; an
  // empty histogram answers 0. The error is bounded by the width of the
  // bucket holding the rank — 1% with FineLatencyBoundariesMs(). Reads one
  // relaxed snapshot, so it is safe, if approximate, under concurrent
  // Observe calls.
  double Quantile(double q) const;
  const std::vector<double>& boundaries() const { return boundaries_; }

 private:
  const std::vector<double> boundaries_;
  std::vector<std::atomic<uint64_t>> buckets_;  // boundaries_.size() + 1.
  internal::Lane sum_lanes_[internal::kLanes];  // Bit-cast doubles.
};

// Observes the scope's wall duration in milliseconds into a latency
// histogram. Always measures real (steady-clock) time — metrics report what
// the process actually spent, even under a simulated Clock.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram* histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ~ScopedHistogramTimer() {
    if (histogram_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      histogram_->Observe(std::chrono::duration<double, std::milli>(elapsed).count());
    }
  }
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

  // The instant the timer opened. Instrumentation nested inside the timed
  // window can reuse this as its own start instead of re-reading the clock —
  // stage attribution anchors txn_lock_wait here so the per-stage sum nests
  // inside the end-to-end window by construction.
  std::chrono::steady_clock::time_point start() const { return start_; }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

enum class CallbackType {
  kCounter,  // Exposed with TYPE counter; the function must be monotone.
  kGauge,
};

class MetricsRegistry;

// RAII deregistration handle for callback metrics. Movable; destroying it
// removes the callback unless a later registration already replaced it.
class ScopedMetricCallback {
 public:
  ScopedMetricCallback() = default;
  ScopedMetricCallback(MetricsRegistry* registry, uint64_t token)
      : registry_(registry), token_(token) {}
  ~ScopedMetricCallback() { Release(); }

  ScopedMetricCallback(ScopedMetricCallback&& other) noexcept
      : registry_(other.registry_), token_(other.token_) {
    other.registry_ = nullptr;
  }
  ScopedMetricCallback& operator=(ScopedMetricCallback&& other) noexcept {
    if (this != &other) {
      Release();
      registry_ = other.registry_;
      token_ = other.token_;
      other.registry_ = nullptr;
    }
    return *this;
  }
  ScopedMetricCallback(const ScopedMetricCallback&) = delete;
  ScopedMetricCallback& operator=(const ScopedMetricCallback&) = delete;

 private:
  void Release();

  MetricsRegistry* registry_ = nullptr;
  uint64_t token_ = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every in-tree component registers into; the
  // kGetMetrics RPC and the --metrics-port endpoint expose this one.
  static MetricsRegistry& Global();

  // Find-or-create. The returned pointer is stable and lock-free to use;
  // look it up once and cache it. A name re-used with a different metric
  // type logs a warning and yields a detached instrument (never nullptr, so
  // callers need no error path).
  Counter* GetCounter(const std::string& name, const std::string& help,
                      MetricLabels labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help, MetricLabels labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> boundaries, MetricLabels labels = {});

  // Registers a function evaluated at exposition time. Same name+labels
  // replaces the previous callback. The returned handle unregisters on
  // destruction; keep it alive exactly as long as everything the function
  // captures.
  [[nodiscard]] ScopedMetricCallback RegisterCallback(const std::string& name,
                                                      const std::string& help, CallbackType type,
                                                      MetricLabels labels,
                                                      std::function<double()> fn);

  // Prometheus text exposition (format 0.0.4). Families sorted by name,
  // children by label signature, so output is deterministic.
  std::string Exposition() const;

  // Point read of one child's value (tests): counter/gauge/callback value,
  // or histogram count. Returns false when no such child exists.
  bool ReadValue(const std::string& name, const MetricLabels& labels, double* out) const;

 private:
  friend class ScopedMetricCallback;

  enum class Type { kCounter, kGauge, kHistogram, kCallbackCounter, kCallbackGauge };

  struct Child {
    MetricLabels labels;          // Original order for exposition.
    std::string signature;        // Canonical sorted key.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;
    uint64_t callback_token = 0;
  };

  struct Family {
    std::string name;
    std::string help;
    Type type = Type::kCounter;
    std::vector<std::unique_ptr<Child>> children;
  };

  Family* FindOrCreateFamilyLocked(const std::string& name, const std::string& help, Type type)
      REQUIRES(mu_);
  Child* FindOrCreateChildLocked(Family& family, MetricLabels labels) REQUIRES(mu_);
  void UnregisterCallback(uint64_t token);

  mutable Mutex mu_;
  std::vector<std::unique_ptr<Family>> families_ GUARDED_BY(mu_);
  // Type-conflict fallbacks: detached instruments kept alive but never
  // exposed (a coding bug should degrade, not crash).
  std::vector<std::unique_ptr<Child>> detached_ GUARDED_BY(mu_);
  uint64_t next_callback_token_ GUARDED_BY(mu_) = 1;
};

}  // namespace obs
}  // namespace aft

#endif  // SRC_OBS_METRICS_H_
