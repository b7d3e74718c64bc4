#include "src/common/clock.h"

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cstdlib>
#include <thread>

namespace aft {

int64_t Clock::WallTimeMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(Now()).count();
}

RealClock::RealClock(double scale, Duration spin_threshold)
    : scale_(scale > 0 ? scale : 1.0),
      spin_threshold_(spin_threshold),
      epoch_(std::chrono::steady_clock::now()) {
#if defined(__linux__)
  // Scaled sleeps are frequently sub-millisecond; the default 50us kernel
  // timer slack would systematically overshoot them. Threads inherit the
  // creator's slack, so setting it here covers the whole process in the
  // common case where the clock is created before worker threads.
  prctl(PR_SET_TIMERSLACK, 1000);
#endif
}

TimePoint RealClock::Now() {
  const auto wall = std::chrono::steady_clock::now() - epoch_;
  // Report simulated time: wall elapsed divided by the scale factor.
  return std::chrono::duration_cast<Duration>(
      std::chrono::duration<double, std::nano>(wall.count() / scale_));
}

std::chrono::nanoseconds RealClock::ToWall(Duration d) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::nano>(static_cast<double>(d.count()) * scale_));
}

void RealClock::SleepFor(Duration d) {
  if (d <= Duration::zero()) {
    return;
  }
  const auto wall = ToWall(d);
  // Linux timer slack makes very short sleeps unreliable (~50-100us jitter),
  // which would distort sub-millisecond simulated latencies. Sleep the bulk
  // and spin the final stretch (unless spinning is disabled).
  if (spin_threshold_ <= Duration::zero()) {
    std::this_thread::sleep_for(wall);
    return;
  }
  const auto deadline = std::chrono::steady_clock::now() + wall;
  if (wall > spin_threshold_) {
    std::this_thread::sleep_for(wall - spin_threshold_);
  }
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

bool RealClock::WaitFor(const std::atomic<bool>& flag, Duration d) {
  const auto deadline = std::chrono::steady_clock::now() + ToWall(d);
  MutexLock lock(wait_mu_);
  while (!flag.load(std::memory_order_acquire)) {
    const auto left = deadline - std::chrono::steady_clock::now();
    if (left <= std::chrono::steady_clock::duration::zero()) {
      break;
    }
    wait_cv_.WaitFor(lock, left);
  }
  return flag.load(std::memory_order_acquire);
}

void RealClock::Notify() {
  // Under the lock, so a waiter between its flag check and its wait cannot
  // miss the wake-up.
  MutexLock lock(wait_mu_);
  wait_cv_.NotifyAll();
}

int64_t RealClock::WallTimeMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

RealClock& RealClock::Default() {
  static RealClock* clock = [] {
    double scale = 1.0;
    if (const char* env = std::getenv("AFT_TIME_SCALE"); env != nullptr) {
      const double parsed = std::atof(env);
      if (parsed > 0) {
        scale = parsed;
      }
    }
    return new RealClock(scale);
  }();
  return *clock;
}

TimePoint SimClock::Now() {
  MutexLock lock(mu_);
  return now_;
}

void SimClock::SleepFor(Duration d) {
  if (d <= Duration::zero()) {
    return;
  }
  static const std::atomic<bool> kNever{false};
  WaitFor(kNever, d);
}

bool SimClock::WaitFor(const std::atomic<bool>& flag, Duration d) {
  MutexLock lock(mu_);
  const TimePoint deadline = now_ + std::max(d, Duration::zero());
  auto it = sleepers_.insert(deadline);
  while (!flag.load(std::memory_order_acquire) && now_ < deadline) {
    if (auto_advance_.load() && *sleepers_.begin() == deadline) {
      // We are the earliest sleeper: virtual time jumps to our deadline.
      now_ = deadline;
      cv_.NotifyAll();
      break;
    }
    cv_.Wait(lock);
  }
  sleepers_.erase(it);
  // Our wakeup may have made another thread the earliest sleeper.
  cv_.NotifyAll();
  return flag.load(std::memory_order_acquire);
}

void SimClock::Notify() {
  MutexLock lock(mu_);
  cv_.NotifyAll();
}

size_t SimClock::sleepers() {
  MutexLock lock(mu_);
  return sleepers_.size();
}

int64_t SimClock::WallTimeMicros() {
  MutexLock lock(mu_);
  const int64_t base = std::chrono::duration_cast<std::chrono::microseconds>(now_).count();
  // Units are microseconds of virtual time. A global sequence number keeps
  // timestamps strictly increasing across ties at the same virtual instant
  // (it drifts the clock forward by 1us per call, which is harmless — the
  // protocols never depend on timestamp accuracy). The constant offset keeps
  // simulated wall time well above the small timestamps used by dataset
  // loaders, mirroring a real epoch-based clock.
  constexpr int64_t kEpochOffset = 1'000'000'000'000;
  return kEpochOffset + base + wall_seq_.fetch_add(1);
}

void SimClock::Advance(Duration d) {
  if (d < Duration::zero()) {
    return;
  }
  MutexLock lock(mu_);
  now_ += d;
  cv_.NotifyAll();
}

}  // namespace aft
