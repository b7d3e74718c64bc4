// Sampled contention profiler: named wait points (locks and queues) with
// lock-free recording, feeding the /debug/contention surface and the
// aft_lock_wait_* metrics bridge.
//
// Design constraints (see docs/OBSERVABILITY.md "Latency attribution"):
//   - NEAR-ZERO COST WHEN OFF. Sampling defaults to disabled
//     (`SetSampleEveryN(0)`); the per-acquisition check is one relaxed
//     atomic load and a branch, and an *unnamed* mutex only pays a null
//     pointer compare. bench_obs holds a gate on this.
//   - Lives in src/common (not src/obs) because the instrumented wrappers in
//     mutex.h are common and obs depends on common, never the reverse. The
//     obs layer bridges snapshots into the metrics registry at scrape time.
//   - Sites are never deleted; GetSite pointers are stable for the process
//     lifetime, so callers cache them in constructors or function statics.
//
// Wait histograms are log2-nanosecond buckets: bucket i counts waits in
// [2^i, 2^(i+1)) ns, bucket 0 additionally absorbs 0..1 ns. 32 buckets cover
// up to ~4.3 s, everything longer lands in the last bucket.

#ifndef SRC_COMMON_CONTENTION_H_
#define SRC_COMMON_CONTENTION_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace aft {
namespace contention {

enum class SiteKind { kLock, kQueue };

// One named wait point. All counters are relaxed atomics: concurrent
// recorders never synchronize with each other, snapshots are approximate
// by design (each individual counter is exact).
class ContentionSite {
 public:
  static constexpr int kNumBuckets = 32;

  ContentionSite(std::string name, SiteKind kind)
      : name_(std::move(name)), kind_(kind) {}
  ContentionSite(const ContentionSite&) = delete;
  ContentionSite& operator=(const ContentionSite&) = delete;

  // A sampled acquisition that had to block for `wait_ns`.
  void RecordWait(uint64_t wait_ns) {
    samples_.fetch_add(1, std::memory_order_relaxed);
    contended_.fetch_add(1, std::memory_order_relaxed);
    total_wait_ns_.fetch_add(wait_ns, std::memory_order_relaxed);
    uint64_t prev = max_wait_ns_.load(std::memory_order_relaxed);
    while (prev < wait_ns &&
           !max_wait_ns_.compare_exchange_weak(prev, wait_ns, std::memory_order_relaxed)) {
    }
    buckets_[BucketIndex(wait_ns)].fetch_add(1, std::memory_order_relaxed);
  }

  // A sampled acquisition that got the capability immediately (try succeeded).
  void RecordUncontended() { samples_.fetch_add(1, std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  SiteKind kind() const { return kind_; }
  uint64_t samples() const { return samples_.load(std::memory_order_relaxed); }
  uint64_t contended() const { return contended_.load(std::memory_order_relaxed); }
  uint64_t total_wait_ns() const { return total_wait_ns_.load(std::memory_order_relaxed); }
  uint64_t max_wait_ns() const { return max_wait_ns_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const { return buckets_[i].load(std::memory_order_relaxed); }

  static int BucketIndex(uint64_t wait_ns) {
    if (wait_ns < 2) {
      return 0;
    }
    int i = 63 - __builtin_clzll(wait_ns);
    return i < kNumBuckets ? i : kNumBuckets - 1;
  }

 private:
  const std::string name_;
  const SiteKind kind_;
  std::atomic<uint64_t> samples_{0};
  std::atomic<uint64_t> contended_{0};
  std::atomic<uint64_t> total_wait_ns_{0};
  std::atomic<uint64_t> max_wait_ns_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

// Point-in-time copy of one site's counters, for /debug/contention and tests.
struct SiteSnapshot {
  std::string name;
  SiteKind kind;
  uint64_t samples = 0;
  uint64_t contended = 0;
  uint64_t total_wait_ns = 0;
  uint64_t max_wait_ns = 0;
  std::array<uint64_t, ContentionSite::kNumBuckets> buckets{};

  // Approximate quantile (0..1) from the log2 buckets; returns the upper
  // bound of the bucket holding the q-th contended wait (≤ 2x relative
  // error by construction). 0 when nothing was contended.
  uint64_t ApproxQuantileNs(double q) const;
};

const char* SiteKindName(SiteKind kind);  // "lock" | "queue"

// Process-wide site registry. Find-or-create keyed by name; pointers stable
// forever (sites are intentionally leaked, same lifetime rule as metrics
// instruments).
class ContentionRegistry {
 public:
  static ContentionRegistry& Global();

  ContentionSite* GetSite(const std::string& name, SiteKind kind);

  // Copies every site's counters. Sorted by total_wait_ns descending so the
  // /debug/contention surface is pre-ranked.
  std::vector<SiteSnapshot> Snapshot() const;

 private:
  ContentionRegistry() = default;
};

// Convenience for cached-site initializers: `static auto* s = LockSite("x");`
ContentionSite* LockSite(const char* name);
ContentionSite* QueueSite(const char* name);

// ---- Sampling control ------------------------------------------------------
// 1-in-N acquisitions of *named* sites are timed; 0 disables (the library
// default — aft_server turns it on via --contention-sample). The counter is
// thread-local, so per-thread streams are exactly 1-in-N.

namespace detail {
extern std::atomic<uint32_t> g_sample_every_n;
extern std::atomic<bool> g_stage_timing;
}  // namespace detail

void SetSampleEveryN(uint32_t n);
uint32_t SampleEveryN();

inline bool ShouldSample() {
  const uint32_t n = detail::g_sample_every_n.load(std::memory_order_relaxed);
  if (n == 0) {
    return false;
  }
  if (n == 1) {
    return true;
  }
  thread_local uint32_t tick = 0;
  if (++tick >= n) {
    tick = 0;
    return true;
  }
  return false;
}

// Times one sampled blocking acquisition: try first (zero wait), otherwise
// clock the block. Cold path by construction — only sampled acquisitions of
// named sites get here.
template <class TryFn, class LockFn>
inline void TimedAcquire(ContentionSite* site, TryFn&& try_acquire, LockFn&& acquire) {
  if (try_acquire()) {
    site->RecordUncontended();
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  acquire();
  site->RecordWait(static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                             std::chrono::steady_clock::now() - start)
                                             .count()));
}

// ---- Commit-stage attribution toggle ---------------------------------------
// Gates the per-stage commit decomposition (aft_commit_stage_seconds and the
// stage timing inside StorageEngine::Commit / ParallelFor). ON by default — the
// instrumentation is a handful of steady_clock reads per commit; the toggle
// exists for the bench_obs on/off overhead A/B and as an escape hatch. Lives
// here (not obs) so src/common and src/storage can read it without an obs
// dependency.

void SetStageTiming(bool enabled);

inline bool StageTimingEnabled() {
  return detail::g_stage_timing.load(std::memory_order_relaxed);
}

}  // namespace contention
}  // namespace aft

#endif  // SRC_COMMON_CONTENTION_H_
