#include "src/common/io_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "src/common/mutex.h"

namespace aft {
namespace {

size_t SharedWidthFromEnv() {
  if (const char* env = std::getenv("AFT_IO_THREADS"); env != nullptr) {
    const long v = std::atol(env);
    if (v > 0) {
      return static_cast<size_t>(v);
    }
  }
  return 32;
}

// Per-thread accumulator for ParallelFor's completion-latch wait; consumed
// by the commit path to attribute the §3.3 barrier stage.
thread_local uint64_t tl_latch_wait_ns = 0;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace

IoExecutor::IoExecutor(size_t num_threads, const char* name) : pool_(num_threads) {
  if (name != nullptr) {
    queue_site_ = contention::QueueSite((std::string(name) + ".queue").c_str());
    run_site_ = contention::QueueSite((std::string(name) + ".run").c_str());
  }
}

void IoExecutor::Shutdown() { pool_.Shutdown(); }

std::function<void()> IoExecutor::Instrument(std::function<void()> task) {
  // Sampled tasks are rewrapped to clock queue wait and run time; the
  // unsampled path hands the task straight through (no extra allocation,
  // no clock reads).
  if (queue_site_ != nullptr && contention::ShouldSample()) {
    const uint64_t submitted_ns = NowNs();
    return [qs = queue_site_, rs = run_site_, submitted_ns, task = std::move(task)] {
      const uint64_t started_ns = NowNs();
      qs->RecordWait(started_ns - submitted_ns);
      task();
      rs->RecordWait(NowNs() - started_ns);
    };
  }
  return task;
}

bool IoExecutor::SubmitIfIdle(std::function<void()> task) {
  return pool_.SubmitIfIdle(Instrument(std::move(task)));
}

IoExecutor& IoExecutor::Shared() {
  static IoExecutor* shared = new IoExecutor(SharedWidthFromEnv(), "io_shared");
  return *shared;
}

uint64_t IoExecutor::ConsumeLatchWaitNanos() {
  const uint64_t v = tl_latch_wait_ns;
  tl_latch_wait_ns = 0;
  return v;
}

Status IoExecutor::ParallelFor(size_t n, const std::function<Status(size_t)>& fn,
                               size_t max_parallelism) {
  if (n == 0) {
    return Status::Ok();
  }
  if (n == 1) {
    return fn(0);
  }

  // Per-call state, shared_ptr-owned: a helper that is still exiting its
  // drain loop after the final count-down must not touch freed memory even
  // though the caller has already returned.
  struct CallState {
    Mutex mu;
    CondVar done_cv;
    std::atomic<size_t> next{0};
    size_t remaining GUARDED_BY(mu);
    size_t first_error_index GUARDED_BY(mu) = std::numeric_limits<size_t>::max();
    Status first_error GUARDED_BY(mu) = Status::Ok();
  };
  auto state = std::make_shared<CallState>();
  {
    MutexLock lock(state->mu);
    state->remaining = n;
  }

  // Claims items until the index is exhausted; every claimed item is
  // executed and counted down unconditionally, so `remaining` always
  // reaches zero no matter which threads participate.
  auto drain = [](CallState& s, const std::function<Status(size_t)>& f, size_t total) {
    size_t i;
    while ((i = s.next.fetch_add(1, std::memory_order_relaxed)) < total) {
      Status status = f(i);
      MutexLock lock(s.mu);
      if (!status.ok() && i < s.first_error_index) {
        s.first_error_index = i;
        s.first_error = std::move(status);
      }
      if (--s.remaining == 0) {
        s.done_cv.NotifyAll();
      }
    }
  };

  size_t lanes = std::min(n, pool_.num_threads() + 1);
  if (max_parallelism > 0) {
    lanes = std::min(lanes, max_parallelism);
  }
  // The caller is one lane; the rest are pool helpers. A failed Submit
  // (pool shut down) just means fewer lanes — never lost work.
  for (size_t h = 0; h + 1 < lanes; ++h) {
    if (!pool_.Submit([state, fn, n, drain] { drain(*state, fn, n); })) {
      break;
    }
  }

  drain(*state, fn, n);

  MutexLock lock(state->mu);
  if (state->remaining > 0) {
    // Completion latch: our own items are done but helpers still hold
    // claimed ones — this wait IS the §3.3 barrier's straggler time.
    const bool timed = contention::StageTimingEnabled();
    const uint64_t wait_start_ns = timed ? NowNs() : 0;
    do {
      state->done_cv.Wait(lock);
    } while (state->remaining > 0);
    if (timed) {
      tl_latch_wait_ns += NowNs() - wait_start_ns;
    }
  }
  return state->first_error;
}

}  // namespace aft
