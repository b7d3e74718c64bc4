// Hedged commit-record writes (Dean & Barroso, "The Tail at Scale").
//
// A commit on a simulated engine is exactly one record create (its payloads
// ride inside the record), so that create's latency tail is the commit's
// tail. The writer
// keeps a rolling window of this engine's record-write latencies. Once the
// window is full and its p90 is at least kHedgeFloor, a create runs on a
// helper thread; if it is still outstanding after that p90, an identical
// second create races it, and the call returns at the first one to succeed.
// Both attempts are conditional creates of the same key, so at most one of
// them lands and the other finds the record already created. Below the
// floor a create runs inline on the calling thread: no handoff, no
// allocation, no hedge.
//
// The call fails only once every attempt has returned. A success may leave
// the losing attempt in flight; the caller's RecordWriteListener hears when
// it returns, and the writer's destructor waits for it.

#ifndef SRC_STORAGE_RECORD_WRITER_H_
#define SRC_STORAGE_RECORD_WRITER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/storage/storage_engine.h"

namespace aft {

class RecordWriter {
 public:
  // A hedge costs a thread handoff and, past the delay, a second request; it
  // only pays where the tail it cuts is long. Simulated S3's record PUT p90
  // is ~90 ms; DynamoDB's and Redis' are below 10 ms and never hedge.
  static constexpr Duration kHedgeFloor = std::chrono::milliseconds(20);
  // Latencies the observed p90 is taken over; no write hedges before the
  // window has filled.
  static constexpr size_t kWindow = 64;

  explicit RecordWriter(Clock& clock) : clock_(clock) {}
  ~RecordWriter() { AwaitSettled(); }

  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  // Creates `record` on `engine` with PutIfAbsent, hedged as described
  // above; finding the record already created counts as success. `record`
  // may be consumed.
  Status Create(StorageEngine& engine, WriteOp& record, RecordWriteListener* listener);

  // Blocks until every attempt of every write has returned.
  void AwaitSettled();

  // The current hedge delay: the observed p90 once the window is full,
  // zero before. A create hedges only while this is at least kHedgeFloor.
  Duration hedge_delay() const { return Duration(delay_ns_.load(std::memory_order_relaxed)); }
  // Second attempts issued, and second attempts that created the record.
  uint64_t hedged_writes() const { return hedged_writes_.load(std::memory_order_relaxed); }
  uint64_t hedge_wins() const { return hedge_wins_.load(std::memory_order_relaxed); }

 private:
  struct Write;

  // Runs one attempt of `write` and records its outcome.
  void Attempt(Write& write, bool hedge);
  // Adds one attempt's latency to the window.
  void Observe(Duration latency);

  Clock& clock_;
  Mutex mu_;
  CondVar settled_cv_;
  std::array<Duration, kWindow> window_ GUARDED_BY(mu_){};
  uint64_t observed_ GUARDED_BY(mu_) = 0;
  // Attempts still in flight; the destructor waits for zero.
  size_t unsettled_ GUARDED_BY(mu_) = 0;
  std::atomic<int64_t> delay_ns_{0};
  std::atomic<uint64_t> hedged_writes_{0};
  std::atomic<uint64_t> hedge_wins_{0};
};

}  // namespace aft

#endif  // SRC_STORAGE_RECORD_WRITER_H_
