#include "src/common/thread_pool.h"

#include <algorithm>

namespace aft {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(num_threads, 1);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    if (shutdown_) {
      return false;
    }
    queue_.push_back(std::move(task));
  }
  work_cv_.NotifyOne();
  return true;
}

bool ThreadPool::SubmitIfIdle(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    if (shutdown_ || active_ + queue_.size() >= workers_.size()) {
      return false;
    }
    queue_.push_back(std::move(task));
  }
  work_cv_.NotifyOne();
  return true;
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (!(queue_.empty() && active_ == 0)) {
    idle_cv_.Wait(lock);
  }
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(mu_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
    queue_.clear();
  }
  work_cv_.NotifyAll();
  for (auto& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
}

size_t ThreadPool::queue_depth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) {
        work_cv_.Wait(lock);
      }
      if (shutdown_) {
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      MutexLock lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) {
        idle_cv_.NotifyAll();
      }
    }
  }
}

}  // namespace aft
