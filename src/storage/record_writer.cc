#include "src/storage/record_writer.h"

#include <algorithm>
#include <utility>

#include "src/common/io_executor.h"

namespace aft {

// One create shared by the caller and its attempts. The primary attempt
// sends its own copy of the bytes, made on the calling thread before it
// leaves; a hedge sends the original, so a write copies its record once
// however many attempts it makes.
struct RecordWriter::Write {
  Write(StorageEngine& engine, RecordWriteListener* listener, WriteOp record)
      : engine(engine), listener(listener), record(std::move(record)) {}

  StorageEngine& engine;
  RecordWriteListener* const listener;
  WriteOp record;
  std::string primary_value;
  // Set once the outcome is known: an attempt created the record, or every
  // attempt failed.
  std::atomic<bool> answered{false};
  Mutex mu;
  int in_flight GUARDED_BY(mu) = 1;
  bool created GUARDED_BY(mu) = false;
  Status failure GUARDED_BY(mu);
};

void RecordWriter::AwaitSettled() {
  MutexLock lock(mu_);
  while (unsettled_ > 0) {
    settled_cv_.Wait(lock);
  }
}

Status RecordWriter::Create(StorageEngine& engine, WriteOp& record,
                            RecordWriteListener* listener) {
  const Duration delay = hedge_delay();
  if (delay < kHedgeFloor) {
    const TimePoint start = clock_.Now();
    Status created = engine.PutIfAbsent(std::move(record.key), std::move(record.value));
    Observe(clock_.Now() - start);
    return created.code() == StatusCode::kAlreadyExists ? Status::Ok() : created;
  }
  if (listener != nullptr) {
    listener->RecordWriteStarted(record.key);
  }
  {
    MutexLock lock(mu_);
    ++unsettled_;
  }
  auto write = std::make_shared<Write>(engine, listener, std::move(record));
  write->primary_value = write->record.value;
  // An attempt runs on a helper so this thread can return at the first
  // answer; with no helper free, it runs here and cannot be hedged.
  if (!IoExecutor::Shared().SubmitIfIdle([this, write] { Attempt(*write, false); })) {
    Attempt(*write, false);
  }
  bool hedged = false;
  while (!clock_.WaitFor(write->answered, delay)) {
    if (hedged) {
      continue;
    }
    hedged = true;
    {
      MutexLock lock(write->mu);
      if (write->created || write->in_flight == 0) {
        continue;  // Answered meanwhile; the flag is on its way.
      }
      ++write->in_flight;
    }
    {
      MutexLock lock(mu_);
      ++unsettled_;
    }
    hedged_writes_.fetch_add(1, std::memory_order_relaxed);
    if (!IoExecutor::Shared().SubmitIfIdle([this, write] { Attempt(*write, true); })) {
      Attempt(*write, true);
    }
  }
  MutexLock lock(write->mu);
  return write->created ? Status::Ok() : write->failure;
}

void RecordWriter::Attempt(Write& write, bool hedge) {
  const TimePoint start = clock_.Now();
  Status status = write.engine.PutIfAbsent(
      write.record.key, hedge ? std::move(write.record.value) : std::move(write.primary_value));
  Observe(clock_.Now() - start);
  const bool created = status.ok() || status.code() == StatusCode::kAlreadyExists;
  bool answered = false;
  bool settled = false;
  {
    MutexLock lock(write.mu);
    --write.in_flight;
    settled = write.in_flight == 0;
    if (created && !write.created) {
      write.created = true;
      answered = true;
      if (hedge) {
        hedge_wins_.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (!created && write.failure.ok()) {
      write.failure = std::move(status);
    }
    answered = answered || (settled && !write.created);
  }
  if (answered) {
    write.answered.store(true, std::memory_order_release);
    clock_.Notify();
  }
  if (settled && write.listener != nullptr) {
    write.listener->RecordWriteSettled(write.record.key);
  }
  // Last touch of this writer: its destructor may run once this unlocks.
  // Every attempt counts itself out here, not only the settling one: an
  // answering attempt may still be in Notify when the other one settles.
  MutexLock lock(mu_);
  --unsettled_;
  settled_cv_.NotifyAll();
}

void RecordWriter::Observe(Duration latency) {
  MutexLock lock(mu_);
  window_[observed_ % kWindow] = latency;
  ++observed_;
  if (observed_ < kWindow) {
    return;
  }
  std::array<Duration, kWindow> sorted = window_;
  constexpr size_t kP90 = kWindow * 9 / 10;
  std::nth_element(sorted.begin(), sorted.begin() + kP90, sorted.end());
  delay_ns_.store(sorted[kP90].count(), std::memory_order_relaxed);
}

}  // namespace aft
