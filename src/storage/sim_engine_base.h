// Shared machinery for the simulated cloud storage engines: latency charging,
// staleness sampling, counters, and the versioned backing map.

#ifndef SRC_STORAGE_SIM_ENGINE_BASE_H_
#define SRC_STORAGE_SIM_ENGINE_BASE_H_

#include <atomic>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/latency.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/storage/record_writer.h"
#include "src/storage/storage_engine.h"
#include "src/storage/versioned_map.h"

namespace aft {

// Latency models per operation class. A batched write of n items costs one
// sample of `batch_base` plus n samples of `batch_per_item`, slept as one.
struct EngineLatencyProfile {
  LatencyModel get;
  LatencyModel put;
  LatencyModel erase;
  LatencyModel list;
  LatencyModel batch_base;
  LatencyModel batch_per_item;
};

// Returns the calling thread's private generator, seeded once per thread.
Rng& ThreadLocalRng();

// Bulk maintenance read: bypasses latency charging on the simulated engines
// (falls back to a regular Get otherwise). Used by off-critical-path
// streaming scans — node bootstrap and the fault manager's commit-set scan —
// whose cost is either irrelevant to any measurement or modelled explicitly
// (the §6.7 cache-warm delay).
Result<std::string> MaintenanceRead(StorageEngine& storage, const std::string& key);

class SimEngineBase : public StorageEngine {
 public:
  SimEngineBase(std::string name, Clock& clock, EngineLatencyProfile profile,
                StalenessModel staleness, size_t map_shards);

  // Transient-fault injection: every subsequent operation independently
  // fails with `probability` (HTTP 500 / throttling). Reads fail after
  // charging latency; writes fail BEFORE mutating state (the conservative
  // model — a request that failed after applying behaves like a success
  // whose ack was lost, which AFT's idempotent retries already cover).
  void InjectTransientFaults(double probability) {
    fault_probability_.store(probability, std::memory_order_relaxed);
  }

  Result<std::string> Get(const std::string& key) override;
  // Native ranged read: charges the get latency for `length` bytes only.
  Result<std::string> GetRange(const std::string& key, uint64_t offset,
                               uint64_t length) override;
  // Concurrent per-key Gets on the shared IoExecutor (a real client fans
  // out parallel requests); k keys cost ~one get-latency sample, not k.
  std::vector<Result<std::string>> MultiGet(std::span<const std::string> keys) override;
  Status Put(std::string key, std::string value) override;
  // Charges exactly what Put does; lands only if the key holds no object.
  Status PutIfAbsent(std::string key, std::string value) override;
  // Multi-op writes dispatch concurrently on the shared IoExecutor: engines
  // without a batch API (MaxBatchSize() == 1) issue per-key Puts in
  // parallel, batch engines issue their MaxBatchSize() chunks in parallel.
  // Key/value move through into the backing map. Like the real APIs, the
  // batch is NOT atomic — every op is attempted even after one fails
  // (in-flight parallel writes cannot be recalled) and the first error by
  // op index is returned. A single op or chunk runs inline, skipping the
  // executor's std::function indirection, which keeps the commit flush
  // allocation-free. Per-key dispatch goes through the virtual Put so
  // subclass interception (fault injection in tests) keeps working.
  Status BatchPut(std::span<WriteOp> ops) override;
  Status Delete(const std::string& key) override;
  Status BatchDelete(std::span<const std::string> keys) override;
  Result<std::vector<std::string>> List(const std::string& prefix) override;

  std::string_view name() const override { return name_; }
  const StorageCounters& counters() const override { return counters_; }

  // Maintenance hooks for dataset loading and tests: bypass latency,
  // staleness and counters entirely.
  std::optional<std::string> PeekLatest(const std::string& key) const {
    return map_.GetLatest(key);
  }
  void DirectPut(std::string key, std::string value) {
    map_.Put(std::move(key), std::move(value), clock_.Now());
  }
  size_t ApproximateKeyCount() const { return map_.ApproximateKeyCount(); }

  Clock& clock() { return clock_; }

  // Hedges the solo round's record write (see record_writer.h).
  const RecordWriter& record_writer() const { return record_writer_; }

 protected:
  // The record write goes through the hedging RecordWriter.
  Status CreateCommitRecord(WriteOp& record, RecordWriteListener* listener) override;

  // Blocks until no commit-record write is in flight. The record writer
  // waits too, but only once the subclass part of the engine is gone, so a
  // subclass whose own PutIfAbsent code may still be running in a losing
  // attempt calls this from its destructor.
  void AwaitRecordWrites() { record_writer_.AwaitSettled(); }

  // Sleeps for one sample of `model` with the given payload size. When
  // `latency` is given, the sampled duration is also observed into that
  // per-op histogram (aft_storage_op_latency_ms{engine=,op=}).
  void Charge(const LatencyModel& model, uint64_t bytes = 0,
              obs::Histogram* latency = nullptr);
  // Sleeps for `d`, observing it into `latency` when given.
  void ChargeDuration(Duration d, obs::Histogram* latency);

  // Per-op latency instruments (get/put/delete/list/batch), shared by every
  // engine instance with the same name.
  obs::Histogram* op_latency_get_ = nullptr;
  obs::Histogram* op_latency_put_ = nullptr;
  obs::Histogram* op_latency_delete_ = nullptr;
  obs::Histogram* op_latency_list_ = nullptr;
  obs::Histogram* op_latency_batch_ = nullptr;

  // One batched API call covering `chunk` (size <= MaxBatchSize()); moves
  // each op's key/value into the backing map.
  Status PutBatchChunk(std::span<WriteOp> chunk);
  // The counters and the one sleep of a batched write of `chunk`.
  void ChargeBatchWrite(std::span<const WriteOp> chunk);
  Status DeleteBatchChunk(std::span<const std::string> chunk);

  // The timestamp this read observes the store at: `Now()` for consistent
  // engines / fresh reads, an earlier instant for stale reads. Staleness is
  // only applied to keys that have been overwritten (see VersionedMap).
  TimePoint SampleReadAsOf(const std::string& key);

  // Rolls the transient-fault die; true == this operation fails.
  bool ShouldFail();

  Clock& clock_;
  const EngineLatencyProfile profile_;
  const StalenessModel staleness_;
  VersionedMap map_;
  StorageCounters counters_;

 private:
  const std::string name_;
  std::atomic<double> fault_probability_{0.0};
  // After the state its attempts use, so its destructor waits for losing
  // attempts before that state goes away.
  RecordWriter record_writer_;
  // Callback metrics wrapping `counters_` ({engine=name_} labels); values
  // are read from this instance's atomics at exposition time.
  std::vector<obs::ScopedMetricCallback> metric_callbacks_;
};

}  // namespace aft

#endif  // SRC_STORAGE_SIM_ENGINE_BASE_H_
