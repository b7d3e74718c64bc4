// A bounded worker pool with a FIFO queue.
//
// Used by background deletion in the global GC and as the lane pool behind
// IoExecutor.
//
// CONTRACT: destruction (and Shutdown) drops queued tasks that have not
// started. Anything that must complete therefore may not rely on the pool
// draining — either Wait() explicitly (the fault manager's delete pool) or
// count completions on a per-call latch with the submitting thread
// participating in the work (IoExecutor::ParallelFor, which the commit
// flush runs on). See src/common/io_executor.h.

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/mutex.h"

namespace aft {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  // Drains nothing: pending tasks that have not started are dropped, running
  // tasks are joined.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; returns false after Shutdown().
  bool Submit(std::function<void()> task);

  // Enqueues a task only if a worker is free to start it at once (fewer
  // running plus queued tasks than workers); returns false otherwise or
  // after Shutdown().
  bool SubmitIfIdle(std::function<void()> task);

  // Blocks until the queue is empty and all workers are idle.
  void Wait();

  // Stops accepting tasks and joins workers after running tasks finish.
  void Shutdown();

  size_t num_threads() const { return workers_.size(); }
  size_t queue_depth() const;

 private:
  void WorkerLoop();

  mutable Mutex mu_;
  CondVar work_cv_;
  CondVar idle_cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  size_t active_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace aft

#endif  // SRC_COMMON_THREAD_POOL_H_
