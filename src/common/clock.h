// Time abstraction for the AFT simulation substrate.
//
// Every latency-bearing component (storage engines, the FaaS invoker, gossip
// timers) takes a `Clock&` so that:
//   * unit tests run against `SimClock` (virtual time, instantaneous), and
//   * benchmarks run against `RealClock` with a global *time scale*: simulated
//     cloud latencies (milliseconds) are slept at `latency * scale` so a full
//     paper experiment finishes in seconds, while reported numbers are
//     converted back to simulated milliseconds.

#ifndef SRC_COMMON_CLOCK_H_
#define SRC_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>

#include "src/common/mutex.h"

namespace aft {

using Duration = std::chrono::nanoseconds;
using TimePoint = std::chrono::nanoseconds;  // Nanoseconds since clock epoch.

inline Duration Micros(int64_t us) { return std::chrono::microseconds(us); }
inline Duration Millis(int64_t ms) { return std::chrono::milliseconds(ms); }
inline double ToMillis(Duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(d).count();
}

// Interface. `now()` must be monotonic; `SleepFor` blocks the calling thread
// for (at least) the given *simulated* duration.
class Clock {
 public:
  virtual ~Clock() = default;

  // Monotonic simulated time since an arbitrary epoch.
  virtual TimePoint Now() = 0;

  // Blocks for `d` of simulated time.
  virtual void SleepFor(Duration d) = 0;

  // Blocks until `flag` is true or `d` of simulated time has passed,
  // whichever comes first, and returns the flag. A thread that sets the flag
  // calls Notify() afterwards so a waiter re-checks it.
  virtual bool WaitFor(const std::atomic<bool>& flag, Duration d) = 0;

  // Wakes every WaitFor caller to re-check its flag.
  virtual void Notify() = 0;

  // Wall-clock microseconds since the Unix epoch, used only for commit
  // timestamps (the paper: "each transaction is given a commit timestamp
  // based on the machine's local system clock"; correctness never depends on
  // clock synchronization). Defaults to a monotonic counter derived from
  // Now() so SimClock produces strictly useful timestamps too.
  virtual int64_t WallTimeMicros();
};

// Real time, optionally scaled. With scale 0.1, `SleepFor(10ms)` sleeps 1ms
// of wall time; `Now()` reports *simulated* time (wall elapsed / scale) so
// callers measure latencies in simulated units without extra bookkeeping.
//
// Short scaled sleeps (< 200us wall) are completed with a spin-wait: Linux
// timer slack would otherwise distort sub-millisecond simulated latencies.
class RealClock : public Clock {
 public:
  // `scale` is wall-seconds per simulated-second, must be > 0.
  // `spin_threshold` is the wall-time tail of each sleep completed by
  // spin-waiting for precision; pass Duration::zero() for pure sleeps in
  // highly concurrent benchmarks (hundreds of threads spinning would
  // serialize on small machines).
  explicit RealClock(double scale = 1.0,
                     Duration spin_threshold = std::chrono::microseconds(200));

  TimePoint Now() override;
  void SleepFor(Duration d) override;
  bool WaitFor(const std::atomic<bool>& flag, Duration d) override;
  void Notify() override;
  int64_t WallTimeMicros() override;

  double scale() const { return scale_; }

  // Process-wide default clock with scale taken from the AFT_TIME_SCALE
  // environment variable (default 1.0). Used by benches.
  static RealClock& Default();

 private:
  // Wall time for `d` of simulated time.
  std::chrono::nanoseconds ToWall(Duration d) const;

  const double scale_;
  const Duration spin_threshold_;
  const std::chrono::steady_clock::time_point epoch_;
  // WaitFor callers park here; Notify wakes them all.
  Mutex wait_mu_;
  CondVar wait_cv_;
};

// Virtual time. `SleepFor` blocks the caller until some other thread (or the
// caller itself via `Advance`) moves time forward past its deadline. With a
// single thread, `SleepFor` simply advances time instantly — this is the mode
// unit tests and deterministic protocol tests use.
//
// Thread-safe. When multiple threads sleep, `Advance` wakes all those whose
// deadlines have passed; `AutoAdvance(true)` (the default) makes `SleepFor`
// by the *only* sleeper advance time itself, which keeps single-threaded
// tests trivial while still supporting explicit-advance tests. A WaitFor
// caller is a sleeper like any other until its flag is set.
class SimClock : public Clock {
 public:
  SimClock() = default;

  TimePoint Now() override;
  void SleepFor(Duration d) override;
  bool WaitFor(const std::atomic<bool>& flag, Duration d) override;
  void Notify() override;
  int64_t WallTimeMicros() override;

  // Threads blocked in SleepFor or WaitFor right now. With auto-advance off,
  // a test polls this to know every thread it expects has gone to sleep
  // before it calls Advance.
  size_t sleepers();

  // Moves time forward by `d`, waking sleepers whose deadlines pass.
  void Advance(Duration d);

  // When true (default), a thread calling SleepFor advances virtual time to
  // its own deadline if no earlier-deadline sleeper exists. When false,
  // SleepFor blocks until Advance() is called from another thread.
  void set_auto_advance(bool v) { auto_advance_.store(v); }

 private:
  Mutex mu_;
  CondVar cv_;
  TimePoint now_ GUARDED_BY(mu_){Duration::zero()};
  // Deadlines of currently sleeping threads; the earliest sleeper is allowed
  // to advance virtual time when auto-advance is enabled.
  std::multiset<TimePoint> sleepers_ GUARDED_BY(mu_);
  std::atomic<bool> auto_advance_{true};
  // Monotonic counter folded into WallTimeMicros so that two commits at the
  // same virtual instant still get distinct, ordered timestamps.
  std::atomic<int64_t> wall_seq_{0};
};

}  // namespace aft

#endif  // SRC_COMMON_CLOCK_H_
