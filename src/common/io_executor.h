// A bounded executor for fanning one logical operation's blocking storage
// I/O out over worker threads (§3.3: "all of the transaction's updates are
// sent to storage in parallel").
//
// `ParallelFor(n, fn)` runs fn(0..n-1) concurrently and returns once EVERY
// call has finished — it is the commit path's completion latch, so the
// write-ordering protocol's barrier ("commit record only after every data
// write succeeded") holds by construction.
//
// Design notes:
//   - The caller PARTICIPATES: it drains the same work index as the pool
//     workers and then waits on a per-call latch. Completion therefore never
//     depends on pool capacity or even pool liveness — if the underlying
//     `ThreadPool` has been shut down (`Submit` returns false; its
//     destructor DROPS queued tasks), the caller simply runs every item
//     inline. Commit paths must never rely on pool drain for correctness,
//     and with this executor they never do.
//   - Items are claimed from a shared atomic index, executed exactly once,
//     and counted down on a per-call latch; helpers touch only per-call
//     state kept alive by shared_ptr, so overlapping ParallelFor calls from
//     many transactions share the pool safely.
//   - No early exit on error: every item runs even if an earlier one failed
//     (parallel writes already in flight cannot be recalled; stray versions
//     are invisible without a commit record and are reaped by the orphan
//     sweep). The FIRST error by item index is returned, which keeps the
//     reported failure deterministic under interleaving.
//   - Nesting is deadlock-free: a nested ParallelFor on a starved pool just
//     degrades to the caller thread working alone.
//
// Lock ordering: fn must not hold any lock across a ParallelFor call that
// fn itself acquires (the usual self-deadlock rule); the executor's own
// internal mutex is a leaf and is never held while fn runs.

#ifndef SRC_COMMON_IO_EXECUTOR_H_
#define SRC_COMMON_IO_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "src/common/contention.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"

namespace aft {

class IoExecutor {
 public:
  // Spawns `num_threads` helper workers. Helpers mostly sleep on simulated
  // storage latency, so the width can comfortably exceed the hardware
  // thread count.
  //
  // A non-null `name` enrolls the executor in the contention profiler:
  // sampled SubmitIfIdle() tasks record queue wait (submit → first instruction)
  // into "<name>.queue" and run time into "<name>.run". Unnamed executors
  // and unsampled tasks pay one pointer compare.
  explicit IoExecutor(size_t num_threads, const char* name = nullptr);

  IoExecutor(const IoExecutor&) = delete;
  IoExecutor& operator=(const IoExecutor&) = delete;

  // Runs fn(0) .. fn(n-1), using up to `max_parallelism` concurrent lanes
  // (0 = executor width; the calling thread always counts as one lane).
  // Returns after ALL n calls have completed: OK if every call succeeded,
  // otherwise the error of the failing call with the lowest index.
  // n <= 1 runs entirely inline.
  Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn,
                     size_t max_parallelism = 0);

  // Fire-and-forget: enqueues one task on the helper pool, but only when a
  // helper is free to start it at once; returns false (nothing enqueued)
  // when every helper is busy or the pool has been shut down. For work
  // that has a fallback and must not queue behind — or starve — the
  // blocking fan-outs sharing the pool (the node's §3.3 early writes).
  bool SubmitIfIdle(std::function<void()> task);

  // Stops accepting helper work; in-flight items finish, queued helper
  // tasks are dropped. ParallelFor remains correct afterwards (caller-only
  // drain). Exposed for the shutdown-during-flush test.
  void Shutdown();

  size_t width() const { return pool_.num_threads(); }

  // The process-wide executor shared by commit flush, multi-get reads and
  // maintenance sweeps. Width: AFT_IO_THREADS env var, default 32.
  // Intentionally leaked so late-exiting threads never race static
  // destruction.
  static IoExecutor& Shared();

  // Nanoseconds THIS thread spent in ParallelFor's final completion wait
  // (the §3.3 barrier: data writes issued, waiting for stragglers) since the
  // last call; reading resets the accumulator. The commit path brackets its
  // flush with consume-before / consume-after to attribute the barrier
  // stage. Only accumulates while contention::StageTimingEnabled().
  static uint64_t ConsumeLatchWaitNanos();

 private:
  // Wraps a sampled task to clock its queue wait and run time; returns the
  // task unchanged when unsampled.
  std::function<void()> Instrument(std::function<void()> task);

  ThreadPool pool_;
  contention::ContentionSite* queue_site_ = nullptr;
  contention::ContentionSite* run_site_ = nullptr;
};

}  // namespace aft

#endif  // SRC_COMMON_IO_EXECUTOR_H_
