#include "src/storage/sim_engine_base.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>

#include "src/common/histogram.h"

#include "src/common/io_executor.h"

namespace aft {

Rng& ThreadLocalRng() {
  static std::atomic<uint64_t> counter{0x2545f4914f6cdd1dULL};
  thread_local Rng rng(counter.fetch_add(0x9e3779b97f4a7c15ULL));
  return rng;
}

Result<std::string> MaintenanceRead(StorageEngine& storage, const std::string& key) {
  if (auto* sim = dynamic_cast<SimEngineBase*>(&storage); sim != nullptr) {
    auto value = sim->PeekLatest(key);
    if (!value.has_value()) {
      return Status::NotFound(key);
    }
    return std::move(*value);
  }
  return storage.Get(key);
}

SimEngineBase::SimEngineBase(std::string name, Clock& clock, EngineLatencyProfile profile,
                             StalenessModel staleness, size_t map_shards)
    : clock_(clock),
      profile_(profile),
      staleness_(staleness),
      map_(map_shards, /*history_depth=*/8, staleness.Retention()),
      name_(std::move(name)),
      record_writer_(clock) {
  auto& reg = obs::MetricsRegistry::Global();
  const obs::MetricLabels labels = {{"engine", name_}};
  auto latency = [&](const char* op, const char* help) {
    obs::MetricLabels op_labels = labels;
    op_labels.emplace_back("op", op);
    return reg.GetHistogram("aft_storage_op_latency_ms", help, DefaultLatencyBoundariesMs(),
                            std::move(op_labels));
  };
  op_latency_get_ = latency("get", "Charged storage latency per operation (ms)");
  op_latency_put_ = latency("put", "Charged storage latency per operation (ms)");
  op_latency_delete_ = latency("delete", "Charged storage latency per operation (ms)");
  op_latency_list_ = latency("list", "Charged storage latency per operation (ms)");
  op_latency_batch_ = latency("batch", "Charged storage latency per operation (ms)");
  auto wrap = [&](const char* metric, const char* help, const std::atomic<uint64_t>& cell) {
    metric_callbacks_.push_back(reg.RegisterCallback(
        metric, help, obs::CallbackType::kCounter, labels,
        [&cell] { return static_cast<double>(cell.load(std::memory_order_relaxed)); }));
  };
  wrap("aft_storage_gets_total", "Storage GET operations", counters_.gets);
  wrap("aft_storage_puts_total", "Storage PUT operations", counters_.puts);
  wrap("aft_storage_batch_puts_total", "Storage batched-write API calls", counters_.batch_puts);
  wrap("aft_storage_deletes_total", "Storage DELETE operations", counters_.deletes);
  wrap("aft_storage_lists_total", "Storage LIST operations", counters_.lists);
  wrap("aft_storage_bytes_read_total", "Payload bytes read from storage", counters_.bytes_read);
  wrap("aft_storage_bytes_written_total", "Payload bytes written to storage",
       counters_.bytes_written);
  wrap("aft_storage_api_calls_total", "Storage API requests issued", counters_.api_calls);
  wrap("aft_storage_stale_reads_total", "Reads served from a stale snapshot",
       counters_.stale_reads);
  wrap("aft_storage_transient_faults_total", "Injected transient storage faults",
       counters_.transient_faults);
  metric_callbacks_.push_back(reg.RegisterCallback(
      "aft_storage_hedged_writes_total", "Commit-record creates that issued a second attempt",
      obs::CallbackType::kCounter, labels,
      [this] { return static_cast<double>(record_writer_.hedged_writes()); }));
  metric_callbacks_.push_back(reg.RegisterCallback(
      "aft_storage_hedge_wins_total", "Second commit-record attempts that created the record",
      obs::CallbackType::kCounter, labels,
      [this] { return static_cast<double>(record_writer_.hedge_wins()); }));
  metric_callbacks_.push_back(reg.RegisterCallback(
      "aft_storage_hedge_delay_ms",
      "Wait before a commit-record create is hedged: the observed p90 (0 until observed)",
      obs::CallbackType::kGauge, labels,
      [this] { return ToMillis(record_writer_.hedge_delay()); }));
}

void SimEngineBase::Charge(const LatencyModel& model, uint64_t bytes, obs::Histogram* latency) {
  ChargeDuration(model.Sample(ThreadLocalRng(), bytes), latency);
}

void SimEngineBase::ChargeDuration(Duration d, obs::Histogram* latency) {
  if (latency != nullptr) {
    // Observe the charged (simulated) latency: in a simulation this IS the
    // engine's per-op service time.
    latency->Observe(std::chrono::duration<double, std::milli>(d).count());
  }
  if (d > Duration::zero()) {
    clock_.SleepFor(d);
  }
}

bool SimEngineBase::ShouldFail() {
  const double p = fault_probability_.load(std::memory_order_relaxed);
  if (p > 0 && ThreadLocalRng().Bernoulli(p)) {
    counters_.transient_faults.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

TimePoint SimEngineBase::SampleReadAsOf(const std::string& key) {
  const TimePoint now = clock_.Now();
  if (staleness_.IsConsistent()) {
    return now;
  }
  Rng& rng = ThreadLocalRng();
  if (!rng.Bernoulli(staleness_.stale_probability)) {
    return now;
  }
  if (!map_.HasHistory(key)) {
    // New-key PUTs are read-after-write consistent; only overwrites go stale.
    return now;
  }
  // Exponential staleness with the configured mean, clamped to the map's
  // retention horizon (history older than that is gone).
  const double mean_ms = ToMillis(staleness_.mean_staleness);
  const double sample_ms = -mean_ms * std::log(1.0 - rng.NextDouble());
  const auto staleness = std::min(
      staleness_.Retention(),
      std::chrono::duration_cast<Duration>(std::chrono::duration<double, std::milli>(sample_ms)));
  counters_.stale_reads.fetch_add(1, std::memory_order_relaxed);
  return now - staleness;
}

Result<std::string> SimEngineBase::Get(const std::string& key) {
  counters_.gets.fetch_add(1, std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  Charge(profile_.get, 0, op_latency_get_);
  if (ShouldFail()) {
    return Status::Unavailable("transient storage error (injected)");
  }
  const TimePoint as_of = SampleReadAsOf(key);
  std::optional<std::string> value = map_.Get(key, as_of);
  if (!value.has_value()) {
    return Status::NotFound(key);
  }
  counters_.bytes_read.fetch_add(value->size(), std::memory_order_relaxed);
  return std::move(*value);
}

Result<std::string> SimEngineBase::GetRange(const std::string& key, uint64_t offset,
                                            uint64_t length) {
  counters_.gets.fetch_add(1, std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  Charge(profile_.get, length, op_latency_get_);
  if (ShouldFail()) {
    return Status::Unavailable("transient storage error (injected)");
  }
  const TimePoint as_of = SampleReadAsOf(key);
  std::optional<std::string> value = map_.Get(key, as_of);
  if (!value.has_value()) {
    return Status::NotFound(key);
  }
  if (offset > value->size()) {
    return Status::InvalidArgument("range offset beyond object size");
  }
  counters_.bytes_read.fetch_add(std::min<uint64_t>(length, value->size() - offset),
                                 std::memory_order_relaxed);
  return value->substr(offset, length);
}

Status SimEngineBase::Put(std::string key, std::string value) {
  counters_.puts.fetch_add(1, std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_written.fetch_add(value.size(), std::memory_order_relaxed);
  Charge(profile_.put, value.size(), op_latency_put_);
  if (ShouldFail()) {
    return Status::Unavailable("transient storage error (injected)");
  }
  map_.Put(std::move(key), std::move(value), clock_.Now());
  return Status::Ok();
}

Status SimEngineBase::PutIfAbsent(std::string key, std::string value) {
  counters_.puts.fetch_add(1, std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_written.fetch_add(value.size(), std::memory_order_relaxed);
  Charge(profile_.put, value.size(), op_latency_put_);
  if (ShouldFail()) {
    return Status::Unavailable("transient storage error (injected)");
  }
  if (!map_.PutIfAbsent(std::move(key), std::move(value), clock_.Now())) {
    return Status::AlreadyExists("conditional create found the object");
  }
  return Status::Ok();
}

Status SimEngineBase::CreateCommitRecord(WriteOp& record, RecordWriteListener* listener) {
  return record_writer_.Create(*this, record, listener);
}

std::vector<Result<std::string>> SimEngineBase::MultiGet(std::span<const std::string> keys) {
  if (keys.size() <= 1) {
    return StorageEngine::MultiGet(keys);
  }
  // Pre-size the result vector so the concurrent lanes write disjoint
  // elements; the placeholder is unreachable (every index is filled).
  std::vector<Result<std::string>> results(
      keys.size(), Result<std::string>(Status::Internal("multi-get slot never filled")));
  (void)IoExecutor::Shared().ParallelFor(keys.size(), [this, keys, &results](size_t i) {
    results[i] = Get(keys[i]);
    return Status::Ok();
  });
  return results;
}

void SimEngineBase::ChargeBatchWrite(std::span<const WriteOp> chunk) {
  counters_.batch_puts.fetch_add(1, std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  uint64_t bytes = 0;
  for (const WriteOp& op : chunk) {
    bytes += op.value.size();
  }
  counters_.bytes_written.fetch_add(bytes, std::memory_order_relaxed);
  // One call, one sleep: the base sample plus a sample per item, observed
  // as the call's latency.
  Rng& rng = ThreadLocalRng();
  Duration d = profile_.batch_base.Sample(rng, bytes);
  for (size_t i = 0; i < chunk.size(); ++i) {
    d += profile_.batch_per_item.Sample(rng);
  }
  ChargeDuration(d, op_latency_batch_);
}

Status SimEngineBase::PutBatchChunk(std::span<WriteOp> chunk) {
  ChargeBatchWrite(chunk);
  if (ShouldFail()) {
    return Status::Unavailable("transient storage error (injected)");
  }
  const TimePoint now = clock_.Now();
  for (WriteOp& op : chunk) {
    map_.Put(std::move(op.key), std::move(op.value), now);
  }
  return Status::Ok();
}

Status SimEngineBase::BatchPut(std::span<WriteOp> ops) {
  if (ops.empty()) {
    return Status::Ok();
  }
  const size_t limit = MaxBatchSize();
  if (limit <= 1) {
    // No batch API: one PUT per key, dispatched concurrently (§3.3 — "all
    // of the transaction's updates are sent to storage in parallel").
    if (ops.size() == 1) {
      return Put(std::move(ops[0].key), std::move(ops[0].value));
    }
    return IoExecutor::Shared().ParallelFor(ops.size(), [this, ops](size_t i) {
      return Put(std::move(ops[i].key), std::move(ops[i].value));
    });
  }
  if (ops.size() <= limit) {
    return PutBatchChunk(ops);
  }
  // Chunk by the engine's batch limit (25 for DynamoDB's BatchWriteItem)
  // and issue the chunks concurrently.
  const size_t chunks = (ops.size() + limit - 1) / limit;
  return IoExecutor::Shared().ParallelFor(chunks, [this, ops, limit](size_t c) {
    const size_t start = c * limit;
    return PutBatchChunk(ops.subspan(start, std::min(limit, ops.size() - start)));
  });
}

Status SimEngineBase::Delete(const std::string& key) {
  counters_.deletes.fetch_add(1, std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  Charge(profile_.erase, 0, op_latency_delete_);
  if (ShouldFail()) {
    return Status::Unavailable("transient storage error (injected)");
  }
  map_.Delete(key, clock_.Now());
  return Status::Ok();
}

Status SimEngineBase::DeleteBatchChunk(std::span<const std::string> chunk) {
  counters_.deletes.fetch_add(chunk.size(), std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  Charge(profile_.batch_base, 0, op_latency_batch_);
  const TimePoint now = clock_.Now();
  for (const std::string& key : chunk) {
    map_.Delete(key, now);
  }
  return Status::Ok();
}

Status SimEngineBase::BatchDelete(std::span<const std::string> keys) {
  if (keys.empty()) {
    return Status::Ok();
  }
  if (MaxBatchSize() <= 1) {
    return IoExecutor::Shared().ParallelFor(keys.size(),
                                            [this, keys](size_t i) { return Delete(keys[i]); });
  }
  const size_t limit = MaxBatchSize();
  const size_t chunks = (keys.size() + limit - 1) / limit;
  return IoExecutor::Shared().ParallelFor(chunks, [this, keys, limit](size_t c) {
    const size_t start = c * limit;
    return DeleteBatchChunk(keys.subspan(start, std::min(limit, keys.size() - start)));
  });
}

Result<std::vector<std::string>> SimEngineBase::List(const std::string& prefix) {
  counters_.lists.fetch_add(1, std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  Charge(profile_.list, 0, op_latency_list_);
  return map_.List(prefix);
}

}  // namespace aft
