#include "src/core/aft_node.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <ranges>
#include <span>

#include "src/common/contention.h"
#include "src/common/io_executor.h"
#include "src/common/logging.h"
#include "src/common/small_vector.h"
#include "src/storage/sim_engine_base.h"

namespace aft {
namespace {

// A read's version selection is revalidated after the (unlocked) payload
// fetch; concurrent operations on the same transaction can move the
// selection, so the select-fetch-revalidate cycle retries a bounded number
// of times before giving up with kAborted.
constexpr int kReadStabilizeAttempts = 8;

using StageClock = std::chrono::steady_clock;

double StageSecondsSince(StageClock::time_point start) {
  return std::chrono::duration<double>(StageClock::now() - start).count();
}

// 10 µs .. ~10 s in doubling buckets — spans a WAL fsync (~ms) and a
// simulated cloud round-trip (~tens of ms) with headroom for stragglers.
std::vector<double> StageBoundaries() { return ExponentialBoundaries(1e-5, 2.0, 21); }

void RecordSpan(const obs::TraceContext& trace, const char* name, const std::string& node,
                uint64_t start_us, uint64_t dur_us) {
  obs::TraceEvent event;
  event.trace_id = trace.trace_id;
  event.name = name;
  event.node = node;
  event.start_us = start_us;
  event.dur_us = dur_us;
  obs::Tracer::Global().Record(std::move(event));
}

}  // namespace

CommitStageHistograms CommitStageHistograms::ForNode(const std::string& node_id) {
  auto& reg = obs::MetricsRegistry::Global();
  auto stage = [&](const char* stage_name, const char* help) {
    return reg.GetHistogram("aft_commit_stage_seconds", help, StageBoundaries(),
                            {{"node", node_id}, {"stage", stage_name}});
  };
  CommitStageHistograms h;
  h.txn_lock_wait = stage("txn_lock_wait", "Commit stage: transaction lock wait");
  h.data_flush = stage("data_flush", "Commit stage: data-version flush");
  h.barrier = stage("barrier", "Commit stage: write-ordering barrier wait");
  h.record_write = stage("record_write", "Commit stage: commit-record write");
  h.gossip_publish = stage("gossip_publish", "Commit stage: staging for gossip broadcast");
  return h;
}

AftNode::AftNode(std::string node_id, StorageEngine& storage, Clock& clock, AftNodeOptions options)
    : node_id_(std::move(node_id)),
      storage_(storage),
      clock_(clock),
      options_(std::move(options)),
      data_cache_(options_.data_cache_bytes),
      throttle_(clock, options_.service_cores,
                options_.service_time.Scaled(storage.client_cpu_factor())) {
  auto& reg = obs::MetricsRegistry::Global();
  const obs::MetricLabels labels = {{"node", node_id_}};
  metrics_.txns_started =
      reg.GetCounter("aft_node_txns_started_total", "Transactions started", labels);
  metrics_.txns_committed =
      reg.GetCounter("aft_node_txns_committed_total", "Transactions committed", labels);
  metrics_.txns_aborted =
      reg.GetCounter("aft_node_txns_aborted_total", "Transactions aborted", labels);
  metrics_.reads = reg.GetCounter("aft_node_reads_total", "Key reads served", labels);
  metrics_.writes = reg.GetCounter("aft_node_writes_total", "Key writes buffered", labels);
  metrics_.null_reads =
      reg.GetCounter("aft_node_null_reads_total", "Reads observing the NULL version", labels);
  metrics_.read_aborts = reg.GetCounter("aft_node_read_aborts_total",
                                        "Reads aborted with kNoValidVersion (sec. 3.6)", labels);
  metrics_.read_refetches = reg.GetCounter(
      "aft_node_read_refetches_total",
      "Payload fetches redone because the read set moved past the fetched version", labels);
  metrics_.spills = reg.GetCounter("aft_node_spills_total",
                                   "Atomic Write Buffer spills past the threshold (sec. 3.3)", labels);
  metrics_.gc_records_removed = reg.GetCounter(
      "aft_node_gc_records_removed_total", "Commit records removed by local GC", labels);
  metrics_.remote_commits_applied = reg.GetCounter(
      "aft_node_remote_commits_applied_total", "Gossiped commit records merged", labels);
  metrics_.remote_commits_skipped_superseded =
      reg.GetCounter("aft_node_remote_commits_skipped_superseded_total",
                     "Gossiped commit records dropped as superseded (sec. 4.1)", labels);
  metrics_.commit_latency_ms =
      reg.GetHistogram("aft_node_commit_latency_ms", "CommitTransaction wall latency (ms)",
                       DefaultLatencyBoundariesMs(), labels);
  metrics_.read_latency_ms =
      reg.GetHistogram("aft_node_read_latency_ms", "GetVersioned/MultiGet wall latency (ms)",
                       DefaultLatencyBoundariesMs(), labels);
  metrics_.read_walk_depth = reg.GetHistogram(
      "aft_node_read_walk_depth", "Algorithm-1 candidate versions examined per read",
      ExponentialBoundaries(1, 2, 8), labels);
  metrics_.stages = CommitStageHistograms::ForNode(node_id_);

  metric_callbacks_.push_back(reg.RegisterCallback(
      "aft_node_data_cache_hits_total", "Data cache hits", obs::CallbackType::kCounter, labels,
      [this] { return static_cast<double>(data_cache_.hits()); }));
  metric_callbacks_.push_back(reg.RegisterCallback(
      "aft_node_data_cache_misses_total", "Data cache misses", obs::CallbackType::kCounter,
      labels, [this] { return static_cast<double>(data_cache_.misses()); }));
  metric_callbacks_.push_back(reg.RegisterCallback(
      "aft_commit_set_cache_lookup_hits_total", "Commit-set cache lookup hits",
      obs::CallbackType::kCounter, labels,
      [this] { return static_cast<double>(commits_.lookup_hits()); }));
  metric_callbacks_.push_back(reg.RegisterCallback(
      "aft_commit_set_cache_lookup_misses_total", "Commit-set cache lookup misses",
      obs::CallbackType::kCounter, labels,
      [this] { return static_cast<double>(commits_.lookup_misses()); }));
  for (size_t shard = 0; shard < CommitSetCache::kNumShards; ++shard) {
    obs::MetricLabels shard_labels = labels;
    shard_labels.emplace_back("shard", std::to_string(shard));
    metric_callbacks_.push_back(reg.RegisterCallback(
        "aft_commit_set_cache_entries", "Commit records cached, per shard",
        obs::CallbackType::kGauge, std::move(shard_labels),
        [this, shard] { return static_cast<double>(commits_.ShardSize(shard)); }));
  }
  metric_callbacks_.push_back(reg.RegisterCallback(
      "aft_node_write_buffer_bytes", "Buffered bytes not yet sent to storage, across running txns",
      obs::CallbackType::kGauge, labels, [this] {
        uint64_t total = 0;
        MutexLock lock(txns_mu_);
        for (const auto& [uuid, txn] : txns_) {
          MutexLock txn_lock(txn->mu);
          total += txn->buffered_bytes;
        }
        return static_cast<double>(total);
      }));

  baseline_.txns_started.value = metrics_.txns_started->Value();
  baseline_.txns_committed.value = metrics_.txns_committed->Value();
  baseline_.txns_aborted.value = metrics_.txns_aborted->Value();
  baseline_.reads.value = metrics_.reads->Value();
  baseline_.writes.value = metrics_.writes->Value();
  baseline_.null_reads.value = metrics_.null_reads->Value();
  baseline_.read_aborts.value = metrics_.read_aborts->Value();
  baseline_.read_refetches.value = metrics_.read_refetches->Value();
  baseline_.spills.value = metrics_.spills->Value();
  baseline_.gc_records_removed.value = metrics_.gc_records_removed->Value();
  baseline_.remote_commits_applied.value = metrics_.remote_commits_applied->Value();
  baseline_.remote_commits_skipped_superseded.value =
      metrics_.remote_commits_skipped_superseded->Value();
}

AftNode::~AftNode() {
  StopBackground();
  // Spills still in flight use the engine, which may go away right after
  // this node.
  std::vector<TxnPtr> running;
  {
    MutexLock lock(txns_mu_);
    for (const auto& [uuid, txn] : txns_) {
      running.push_back(txn);
    }
  }
  for (const TxnPtr& txn : running) {
    (void)txn->early_writes.Wait();
  }
  // So do the losing attempts of hedged record writes, which also call back
  // into this node.
  in_flight_records_.AwaitSettled();
}

void AftNode::InFlightRecords::RecordWriteStarted(const std::string& record_key) {
  pins_.Pin(TxnIdFromCommitStorageKey(record_key));
  MutexLock lock(mu_);
  ++in_flight_;
}

void AftNode::InFlightRecords::RecordWriteSettled(const std::string& record_key) {
  pins_.Unpin(TxnIdFromCommitStorageKey(record_key));
  MutexLock lock(mu_);
  --in_flight_;
  settled_cv_.NotifyAll();
}

void AftNode::InFlightRecords::AwaitSettled() {
  MutexLock lock(mu_);
  while (in_flight_ > 0) {
    settled_cv_.Wait(lock);
  }
}

Status AftNode::Start() {
  AFT_RETURN_IF_ERROR(CheckAlive());
  // Bootstrap: warm the metadata cache with the newest commit records in the
  // Transaction Commit Set (§3.1). The zero-padded key encoding makes the
  // listing time-ordered, so the tail of the list is the newest.
  AFT_ASSIGN_OR_RETURN(std::vector<std::string> commit_keys, storage_.List(kCommitPrefix));
  const size_t limit = options_.bootstrap_commit_limit;
  const size_t start = commit_keys.size() > limit ? commit_keys.size() - limit : 0;
  // Maintenance reads: the §6.7 replacement delay charges warm-up's cost.
  size_t loaded = 0;
  for (const CommitRecordPtr& ptr :
       FetchCommitRecords(storage_, std::span(commit_keys).subspan(start),
                          std::thread::hardware_concurrency(), node_id_)) {
    if (ptr != nullptr && commits_.Add(ptr)) {
      index_.AddCommit(*ptr);
      ++loaded;
    }
  }
  AFT_LOG(Info) << node_id_ << ": bootstrapped " << loaded << " commit records";
  if (options_.enable_background_threads && !background_.joinable()) {
    background_ = std::thread([this] { BackgroundLoop(); });
  }
  return Status::Ok();
}

void AftNode::Kill() {
  alive_.store(false, std::memory_order_release);
  // Kill can run on any thread (a crash hook's too): signal, never join.
  SignalBackgroundStop();
}

void AftNode::SignalBackgroundStop() {
  stop_background_.store(true);
  // Wakes the background loop out of its interval wait.
  clock_.Notify();
}

void AftNode::StopBackground() {
  SignalBackgroundStop();
  if (background_.joinable()) {
    background_.join();
  }
}

Status AftNode::CheckAlive() const {
  if (!alive()) {
    return Status::Unavailable("aft node " + node_id_ + " is down");
  }
  return Status::Ok();
}

bool AftNode::MaybeCrash(CrashPoint point) {
  if (options_.crash_hook && options_.crash_hook(point)) {
    AFT_LOG(Warn) << node_id_ << ": injected crash";
    Kill();
    return true;
  }
  return false;
}

Result<Uuid> AftNode::StartTransaction() {
  // Local callers sample here; wire callers pass the client-minted context
  // through the overload so a transaction is sampled exactly once.
  return StartTransaction(obs::Tracer::Global().StartTrace());
}

Result<Uuid> AftNode::StartTransaction(const obs::TraceContext& trace) {
  AFT_RETURN_IF_ERROR(CheckAlive());
  obs::TraceSpan span(trace, "StartTxn", node_id_);
  const Uuid txid = Uuid::Random(ThreadLocalRng());
  auto txn = std::make_shared<TransactionState>(txid, clock_.Now());
  txn->trace = trace;
  {
    MutexLock lock(txns_mu_);
    txns_.emplace(txid, std::move(txn));
  }
  metrics_.txns_started->Increment();
  return txid;
}

Status AftNode::AdoptTransaction(const Uuid& txid) {
  AFT_RETURN_IF_ERROR(CheckAlive());
  MutexLock lock(txns_mu_);
  if (!txns_.contains(txid)) {
    txns_.emplace(txid, std::make_shared<TransactionState>(txid, clock_.Now()));
    metrics_.txns_started->Increment();
  }
  return Status::Ok();
}

Result<AftNode::TxnPtr> AftNode::FindTransaction(const Uuid& txid) {
  MutexLock lock(txns_mu_);
  auto it = txns_.find(txid);
  if (it == txns_.end()) {
    return Status::FailedPrecondition("unknown transaction " + txid.ToString());
  }
  return it->second;
}

Status AftNode::Put(const Uuid& txid, const std::string& key, std::string value) {
  AFT_RETURN_IF_ERROR(CheckAlive());
  if (key.empty() || key.find('/') != std::string::npos) {
    return Status::InvalidArgument("keys must be non-empty and must not contain '/'");
  }
  throttle_.Charge(ThreadLocalRng());
  AFT_ASSIGN_OR_RETURN(TxnPtr txn, FindTransaction(txid));
  obs::TraceSpan span(txn->trace, "BufferWrite", node_id_);
  MutexLock lock(txn->mu);
  if (txn->status != TxnStatus::kRunning) {
    return Status::FailedPrecondition("transaction is not running");
  }
  // buffered_bytes counts DIRTY payload only; entries already sent to
  // storage stop counting against the threshold.
  auto it = txn->write_buffer.find(key);
  if (it != txn->write_buffer.end()) {
    if (txn->dirty.contains(key)) {
      txn->buffered_bytes -= it->second.size();
    }
    it->second = std::move(value);
  } else {
    it = txn->write_buffer.emplace(key, std::move(value)).first;
  }
  txn->buffered_bytes += it->second.size();
  txn->dirty.insert(key);
  metrics_.writes->Increment();

  // §3.3: a saturated Atomic Write Buffer writes intermediary versions
  // before commit; they stay invisible until the commit record lands.
  if (txn->buffered_bytes > options_.spill_threshold_bytes) {
    StartEarlyWrites(txn);
  }
  return Status::Ok();
}

void AftNode::PrepareDirtyWrites(const TransactionState& txn, const TxnId& writer_id,
                                 DirtyPlacement placement, SmallVector<WriteOp, 8>& ops,
                                 std::vector<VersionLocator>* locators,
                                 std::vector<std::string>* keys) {
  if (txn.dirty.empty()) {
    return;
  }
  // Version objects: the cowritten set is the transaction's full write set
  // so far; for the commit this is the complete, authoritative set. Encode
  // it straight out of the write buffer's keys — no intermediate write-set
  // vector, no VersionedValue materialization; each op is exactly two
  // exact-sized strings (the version key and the serialized value) that
  // move into the engine.
  const auto cowritten = std::views::keys(txn.write_buffer);
  const size_t value_base_bytes =
      record_detail::kRecordHeaderBytes + EncodedStringVectorBytes(cowritten) + 4;
  // The record object holds its payloads back to back after its fields;
  // their locators go into the record.
  uint32_t in_record_bytes = 0;
  ops.reserve(txn.dirty.size());
  for (const auto& [key, payload] : txn.write_buffer) {
    if (!txn.dirty.contains(key)) {
      continue;
    }
    if (placement == DirtyPlacement::kRecord || txn.early_written.contains(key)) {
      if (placement == DirtyPlacement::kSpill) {
        continue;  // Its version object may exist; it waits for the record.
      }
      const auto length = static_cast<uint32_t>(payload.size());
      locators->push_back(VersionLocator{key, in_record_bytes, length});
      in_record_bytes += length;
      continue;
    }
    BinaryWriter w;
    w.Reserve(value_base_bytes + payload.size());
    EncodeVersionedValueFields(w, writer_id, cowritten, payload);
    ops.push_back(WriteOp{VersionStorageKey(key, txn.uuid), std::move(w).TakeData()});
    if (keys != nullptr) {
      keys->push_back(key);
    }
  }
}

void AftNode::StartEarlyWrites(const TxnPtr& txn) {
  SmallVector<WriteOp, 8> ops;
  std::vector<std::string> keys;
  // Early versions carry a zero timestamp (the commit timestamp is not yet
  // known); the authoritative metadata is the commit record.
  PrepareDirtyWrites(*txn, TxnId(0, txn->uuid), DirtyPlacement::kSpill, ops, nullptr, &keys);
  if (ops.empty()) {
    return;
  }
  // Registered before the write can finish, so no barrier misses it. The
  // task keeps the transaction alive; ~AftNode waits for it, which keeps
  // the engine alive.
  txn->early_writes.Begin();
  const bool started = IoExecutor::Shared().SubmitIfIdle(
      [&storage = storage_, txn, ops = std::move(ops), keys = std::move(keys)]() mutable {
        txn->early_writes.Finish(
            keys, storage.BatchPut(std::span<WriteOp>(ops.data(), ops.size())));
      });
  if (!started) {
    // Every helper is busy with other requests' I/O: the entries stay
    // dirty and go out in the commit round instead.
    txn->early_writes.Finish({}, Status::Ok());
    return;
  }
  metrics_.spills->Increment();
  // The keys just sent: the dirty ones not written before (the transaction
  // lock is still held).
  for (auto it = txn->dirty.begin(); it != txn->dirty.end();) {
    if (txn->early_written.contains(*it)) {
      ++it;
      continue;
    }
    txn->buffered_bytes -= txn->write_buffer.find(*it)->second.size();
    const auto next = std::next(it);
    txn->early_written.insert(txn->dirty.extract(it));  // Moves the node.
    it = next;
  }
}

Result<std::optional<std::string>> AftNode::Get(const Uuid& txid, const std::string& key) {
  AFT_ASSIGN_OR_RETURN(VersionedRead read, GetVersioned(txid, key));
  return std::move(read.value);
}

Result<AftNode::VersionedRead> AftNode::GetVersioned(const Uuid& txid, const std::string& key) {
  AFT_ASSIGN_OR_RETURN(std::vector<VersionedRead> reads,
                       MultiGet(txid, std::span<const std::string>(&key, 1)));
  return std::move(reads.front());
}

Result<std::vector<AftNode::VersionedRead>> AftNode::MultiGet(
    const Uuid& txid, std::span<const std::string> keys) {
  AFT_RETURN_IF_ERROR(CheckAlive());
  if (keys.empty()) {
    return std::vector<VersionedRead>{};
  }
  // One shim request covering k keys: cheaper than k separate calls, but
  // response assembly still scales with the batch.
  throttle_.Charge(ThreadLocalRng(), 1.0 + 0.25 * static_cast<double>(keys.size() - 1));
  AFT_ASSIGN_OR_RETURN(TxnPtr txn, FindTransaction(txid));
  obs::ScopedHistogramTimer read_timer(metrics_.read_latency_ms);
  obs::TraceSpan span(txn->trace, "AtomicRead", node_id_);

  // One key that goes through Algorithm 1 (it missed the write buffer).
  struct KeyRead {
    size_t index;             // Position in `keys`.
    AtomicReadChoice choice;  // kVersion or kNullVersion.
    Result<std::string> payload = std::string();  // Fetched for kVersion.
  };

  for (int attempt = 0; attempt < kReadStabilizeAttempts; ++attempt) {
    std::vector<VersionedRead> out(keys.size());
    std::vector<KeyRead> plan;
    plan.reserve(keys.size());
    {
      MutexLock lock(txn->mu);
      if (txn->status != TxnStatus::kRunning) {
        return Status::FailedPrecondition("transaction is not running");
      }
      if (attempt == 0) {
        metrics_.reads->Increment(keys.size());
      }
      uint32_t walk_depth = 0;
      ReadSetFold read_set(txn->read_set);
      for (size_t i = 0; i < keys.size(); ++i) {
        // Read-your-writes (§3.5): data in the transaction's own write buffer
        // is returned immediately and bypasses Algorithm 1 (buffered data has
        // no commit timestamp yet, so it cannot participate).
        if (auto it = txn->write_buffer.find(keys[i]); it != txn->write_buffer.end()) {
          out[i] = VersionedRead{it->second, TxnId(0, txid), nullptr};
          continue;
        }
        AtomicReadChoice choice =
            SelectAtomicReadVersion(keys[i], read_set.get(), index_, commits_);
        if (attempt == 0) {
          metrics_.read_walk_depth->Observe(static_cast<double>(choice.candidates_examined));
          walk_depth += choice.candidates_examined;
        }
        switch (choice.kind) {
          case AtomicReadChoice::Kind::kNullVersion:
            break;
          case AtomicReadChoice::Kind::kNoValidVersion:
            // §3.6: no version of the key is compatible with what the
            // transaction already read; the client must abort and retry.
            metrics_.read_aborts->Increment();
            return Status::Aborted("no valid version of '" + keys[i] + "' for this read set");
          case AtomicReadChoice::Kind::kVersion:
            // Pin the chosen version BEFORE releasing the lock: the local
            // GC skips pinned transactions, so the version's metadata (and
            // its record's cowritten set) stays valid across the unlocked
            // fetch. A pin for a version that never gets installed is
            // harmless — the commit/abort epilogue releases everything in
            // reads_from.
            if (txn->reads_from.insert(choice.version).second) {
              read_pins_.Pin(choice.version);
            }
            if (i + 1 < keys.size()) {
              read_set.Add(keys[i], ReadSetEntry{choice.version, choice.record});
            }
            break;
        }
        plan.push_back(KeyRead{i, std::move(choice)});
      }
      if (attempt == 0) {
        span.AddArg("walk_depth", std::to_string(walk_depth));
      }
    }

    // The storage fetches — retry backoff included — run concurrently,
    // OUTSIDE txn->mu: holding the transaction lock across blocking I/O
    // would stall every other operation of the transaction (the timeout
    // sweeper's abort included). Cache hits return at once; the misses
    // together cost ~one storage-get latency sample instead of one per key.
    (void)IoExecutor::Shared().ParallelFor(plan.size(), [&](size_t j) {
      KeyRead& read = plan[j];
      if (read.choice.kind == AtomicReadChoice::Kind::kVersion) {
        read.payload =
            ReadVersionPayload(keys[read.index], read.choice.version, read.choice.record);
      }
      return Status::Ok();
    });

    MutexLock lock(txn->mu);
    if (txn->status != TxnStatus::kRunning) {
      return Status::FailedPrecondition("transaction is not running");
    }
    for (const KeyRead& read : plan) {
      if (!read.payload.ok()) {
        return read.payload.status();
      }
    }
    // Revalidate: while unlocked, overlapping operations of this
    // transaction (a function retry racing its original, §3.3.1) may have
    // buffered a write of a planned key, which the read then returns, or
    // tightened the read set. Each other choice stands while it still
    // extends the read set and the choices before it; a version committed
    // meanwhile does not invalidate it (the read is Algorithm 1 as of its
    // selection), so the read does not chase it. Install all-or-nothing; on
    // drift, plan and fetch again.
    bool stable = true;
    ReadSetFold read_set(txn->read_set);
    for (size_t j = 0; j < plan.size() && stable; ++j) {
      const KeyRead& read = plan[j];
      const std::string& key = keys[read.index];
      if (txn->write_buffer.contains(key)) {
        continue;
      }
      stable = IsValidAtomicRead(key, read.choice.version, read.choice.record.get(),
                                 read_set.get());
      if (stable && !read.choice.version.IsNull() && j + 1 < plan.size()) {
        read_set.Add(key, ReadSetEntry{read.choice.version, read.choice.record});
      }
    }
    if (!stable) {
      metrics_.read_refetches->Increment();
      continue;
    }
    uint64_t null_reads = 0;
    for (KeyRead& read : plan) {
      const std::string& key = keys[read.index];
      if (auto it = txn->write_buffer.find(key); it != txn->write_buffer.end()) {
        out[read.index] = VersionedRead{it->second, TxnId(0, txid), nullptr};
      } else if (read.choice.version.IsNull()) {
        ++null_reads;
      } else {
        txn->read_set[key] = ReadSetEntry{read.choice.version, read.choice.record};
        out[read.index] = VersionedRead{std::move(read.payload).value(), read.choice.version,
                                        std::move(read.choice.record)};
      }
    }
    metrics_.null_reads->Increment(null_reads);
    return out;
  }
  return Status::Aborted("read did not stabilize");
}

Result<std::string> AftNode::ReadVersionPayload(const std::string& key, const TxnId& version,
                                                const CommitRecordPtr& record) {
  // The cache key identifies the (key, writer) version wherever it lives.
  const std::string version_key = VersionStorageKey(key, version.uuid);
  if (auto cached = data_cache_.Get(version_key); cached.has_value()) {
    return std::move(*cached);
  }
  Status last = Status::Internal("unreachable");
  // A located key's payload sits inside the record object; any other key's
  // in its version object.
  const VersionLocator* locator = record != nullptr ? record->FindLocator(key) : nullptr;
  const std::string record_key = locator != nullptr ? CommitStorageKey(version) : std::string();
  for (int attempt = 0; attempt <= options_.storage_read_retries; ++attempt) {
    if (locator != nullptr) {
      // Ranged GET of the payload slice out of the record object.
      auto bytes = storage_.GetRange(record_key, locator->offset, locator->length);
      if (bytes.ok()) {
        data_cache_.Put(version_key, bytes.value());
        return std::move(bytes).value();
      }
      last = bytes.status();
    } else {
      auto bytes = storage_.Get(version_key);
      if (bytes.ok()) {
        auto value = VersionedValue::Deserialize(bytes.value());
        if (!value.ok()) {
          return value.status();
        }
        data_cache_.Put(version_key, value->payload);
        return std::move(value->payload);
      }
      last = bytes.status();
    }
    if (!last.IsNotFound()) {
      return last;
    }
    clock_.SleepFor(options_.storage_read_backoff);
  }
  // The metadata said this version exists but storage cannot produce it —
  // either the global GC raced us (§5.2.1) or visibility lagged far beyond
  // our retry budget. Either way the transaction must retry.
  return Status::Aborted("version " + version_key + " unreadable: " + last.ToString());
}

Status AftNode::AbortTransaction(const Uuid& txid) {
  AFT_RETURN_IF_ERROR(CheckAlive());
  AFT_ASSIGN_OR_RETURN(TxnPtr txn, FindTransaction(txid));
  std::vector<std::string> orphans;
  {
    MutexLock lock(txn->mu);
    if (txn->status == TxnStatus::kCommitted || txn->status == TxnStatus::kCommitting) {
      return Status::FailedPrecondition("transaction already committed/committing");
    }
    txn->status = TxnStatus::kAborted;
    // §3.3: updates are simply deleted from the Atomic Write Buffer; nothing
    // was visible. Objects written before commit (spills, failed
    // commit rounds) are deleted from storage — no commit record references
    // them.
    for (const std::string& key : txn->early_written) {
      orphans.push_back(VersionStorageKey(key, txn->uuid));
    }
    txn->write_buffer.clear();
    txn->dirty.clear();
    txn->early_written.clear();
    UnpinReads(*txn);
    txn->reads_from.clear();
  }
  if (!orphans.empty()) {
    // A write still in flight would recreate an object deleted before it.
    (void)txn->early_writes.Wait();
    (void)storage_.BatchDelete(orphans);
  }
  {
    MutexLock lock(txns_mu_);
    txns_.erase(txid);
  }
  metrics_.txns_aborted->Increment();
  return Status::Ok();
}

Result<TxnId> AftNode::CommitTransaction(const Uuid& txid) {
  AFT_RETURN_IF_ERROR(CheckAlive());
  // The scope string only decorates debug-level lines; skip the three
  // concatenations per commit when debug logging is off.
  std::optional<LogScope> log_scope;
  if (internal::LogEnabled(LogLevel::kDebug)) {
    log_scope.emplace("node=" + node_id_ + " txn=" + txid.ToString());
  }
  // Idempotence for retried commits (§3.1): a transaction's updates are
  // persisted exactly once.
  {
    MutexLock lock(committed_mu_);
    if (auto it = committed_uuids_.find(txid); it != committed_uuids_.end()) {
      return it->second;
    }
  }
  AFT_ASSIGN_OR_RETURN(TxnPtr txn, FindTransaction(txid));
  // Commit-side processing (batch assembly, serialization of the whole
  // update set) costs about two operation units of node CPU.
  throttle_.Charge(ThreadLocalRng(), 2.0);
  obs::ScopedHistogramTimer commit_timer(metrics_.commit_latency_ms);
  obs::TraceSpan commit_span(txn->trace, "Commit", node_id_);
  // Stage attribution (aft_commit_stage_seconds): every commit that runs
  // with stage timing on observes exact (not sampled) per-stage durations;
  // their sum reconciles against commit_latency_ms, which starts above.
  const bool attrib = contention::StageTimingEnabled();
  // txn_lock_wait opens at the e2e timer's own clock reading — one fewer
  // clock read per commit, and the stage nests inside the commit_latency_ms
  // window by construction.
  MutexLock lock(txn->mu);
  if (attrib) {
    metrics_.stages.txn_lock_wait->Observe(StageSecondsSince(commit_timer.start()));
  }
  if (txn->status != TxnStatus::kRunning) {
    return Status::FailedPrecondition("transaction is not running");
  }
  txn->status = TxnStatus::kCommitting;

  // Assign the commit timestamp from the local system clock (§3.1).
  const TxnId commit_id(clock_.WallTimeMicros(), txid);
  txn->commit_id = commit_id;

  if (MaybeCrash(CrashPoint::kBeforeDataWrite)) {
    return Status::Unavailable("node crashed");
  }

  // Write-ordering protocol (§3.3), prepared under the transaction lock as
  // one commit unit: step 1 persists ALL of the transaction's versions — the
  // dirty ones now, the spilled ones by waiting for them — and step 2 the
  // commit record; only then does the transaction become visible. Unless
  // the engine fuses a unit's data ops with its record into one write, a
  // data op is a request the record must wait for, so every dirty payload
  // rides inside the record object and the two steps are one write. On a
  // fusing engine a dirty key never written before gets its version object
  // in the round's data ops. A key whose version object may exist rides in
  // the record on every engine. Nothing here mutates the transaction; a
  // failed round is accounted for below.
  const bool record_holds_data = !storage_.CommitUnitsFuseDataWithRecord();
  SmallVector<WriteOp, 8> ops;
  std::vector<VersionLocator> locators;
  PrepareDirtyWrites(*txn, commit_id,
                     record_holds_data ? DirtyPlacement::kRecord : DirtyPlacement::kRound, ops,
                     &locators, nullptr);
  std::vector<std::string> write_set_keys;
  write_set_keys.reserve(txn->write_buffer.size());
  for (const auto& [key, payload] : txn->write_buffer) {
    write_set_keys.push_back(key);
  }
  // The record object is its encoded fields followed by the in-record
  // payloads; the fields' size is known before encoding, so each locator's
  // offset becomes absolute in the object.
  const size_t field_bytes = EncodedCommitRecordBytes(write_set_keys, locators);
  if (field_bytes + txn->buffered_bytes > UINT32_MAX) {
    // Locator offsets and lengths are u32; the dirty payloads bound them.
    txn->status = TxnStatus::kRunning;
    return Status::InvalidArgument("a commit's unsent payloads must stay under 4 GiB");
  }
  size_t object_bytes = field_bytes;
  for (VersionLocator& locator : locators) {
    locator.offset += static_cast<uint32_t>(field_bytes);
    object_bytes += locator.length;
  }
  // allocate_shared puts the record and its control block in one pooled
  // block; the allocator (and thus the pool) lives inside the control block,
  // so records released on gossip / fault-manager threads free safely.
  auto record = std::allocate_shared<const CommitRecord>(
      record_alloc_,
      CommitRecord{commit_id, std::move(write_set_keys), std::move(locators)});
  BinaryWriter object;
  object.Reserve(object_bytes);
  EncodeCommitRecordFields(object, commit_id, record->write_set, record->locators);
  for (const VersionLocator& locator : record->locators) {
    object.PutRaw(txn->write_buffer.find(locator.key)->second);
  }
  CommitUnit unit;
  unit.data_ops = std::span<WriteOp>(ops.data(), ops.size());
  unit.commit_record = WriteOp{CommitStorageKey(commit_id), std::move(object).TakeData()};
  unit.record_listener = &in_flight_records_;
  // The barrier's other half: the record waits for the spills still in
  // flight, and a failed one fails the round.
  EarlyWrites* const early = txn->early_written.empty() ? nullptr : &txn->early_writes;
  if (early != nullptr || options_.crash_hook) {
    unit.after_data_write = [this, early] {
      if (early != nullptr) {
        AFT_RETURN_IF_ERROR(early->Wait());
      }
      // Data is durable but the commit record is not: the transaction is NOT
      // committed; its versions are invisible orphans the GC will reap.
      return MaybeCrash(CrashPoint::kAfterDataWrite) ? Status::Unavailable("node crashed")
                                                     : Status::Ok();
    };
  }

  Status committed;
  {
    // The round runs outside the transaction lock. While unlocked the
    // transaction sits in kCommitting, which rejects every concurrent
    // mutation of it.
    obs::TraceSpan round_span(txn->trace, "CommitRound", node_id_);
    lock.Unlock();
    committed = RunCommitRound(unit, record, txn->trace);
    if (!committed.ok() && early != nullptr) {
      // A round that failed before its hook ran did not wait; the failed
      // keys below must be complete.
      (void)early->Wait();
    }
    lock.Lock();
  }
  if (!committed.ok()) {
    // Let the client retry or abort. The round's object writes may have
    // landed, so a retry never reuses their names for other bytes: keys
    // sent to version objects count as written early (the retry carries
    // them in its record). The retry's record is a new object (a new
    // timestamp). Keys whose spill failed are dirty again.
    txn->status = TxnStatus::kRunning;
    if (!record_holds_data) {
      for (const std::string& key : txn->dirty) {
        txn->early_written.insert(key);
      }
    }
    for (const std::string& key : txn->early_writes.TakeFailedKeys()) {
      if (txn->dirty.insert(key).second) {
        txn->buffered_bytes += txn->write_buffer.find(key)->second.size();
      }
    }
    return committed;
  }

  if (MaybeCrash(CrashPoint::kAfterCommitWrite)) {
    // The commit record is durable, so the transaction IS committed even
    // though this node dies before acknowledging: the fault manager's
    // commit-set scan will surface it to the surviving nodes (§4.2).
    return Status::Unavailable("node crashed");
  }

  // Step 3: local visibility. The round already staged the record (and
  // trace) for broadcast.
  txn->dirty.clear();
  if (commits_.Add(record)) {
    index_.AddCommit(*record);
  }
  for (const auto& [key, payload] : txn->write_buffer) {
    data_cache_.Put(VersionStorageKey(key, txid), payload);
  }
  commits_.NoteLocalCommit(commit_id);
  txn->status = TxnStatus::kCommitted;
  UnpinReads(*txn);
  txn->reads_from.clear();
  lock.Unlock();

  FinishCommittedTransaction(txid, commit_id);
  return commit_id;
}

void AftNode::FinishCommittedTransaction(const Uuid& txid, const TxnId& commit_id) {
  {
    MutexLock lock(committed_mu_);
    committed_uuids_[txid] = commit_id;
    committed_order_.push_back(txid);
    if (committed_order_.size() > options_.committed_uuid_memory) {
      committed_uuids_.erase(committed_order_[committed_next_evict_]);
      ++committed_next_evict_;
      if (committed_next_evict_ > options_.committed_uuid_memory) {
        committed_order_.erase(committed_order_.begin(),
                               committed_order_.begin() +
                                   static_cast<long>(committed_next_evict_));
        committed_next_evict_ = 0;
      }
    }
  }
  {
    MutexLock lock(txns_mu_);
    txns_.erase(txid);
  }
  metrics_.txns_committed->Increment();
}

Status AftNode::RunCommitRound(CommitUnit& unit, const CommitRecordPtr& record,
                               const obs::TraceContext& trace) {
  const bool attrib = contention::StageTimingEnabled();
  const bool sampled = trace.sampled();
  const uint64_t span_start_us = sampled ? obs::Tracer::NowMicros() : 0;
  CommitStageProfile profile;
  if (attrib) {
    // Shared boundaries: the round start is the engine's flush start, and
    // the engine's last reading (profile.end) is the publish start.
    profile.start = StageClock::now();
  }
  const Status committed = storage_.Commit(unit, attrib ? &profile : nullptr);
  if (sampled) {
    // The engine persists data versions and the record in one call, so
    // both lifecycle spans share the round's window.
    const uint64_t end_us = obs::Tracer::NowMicros();
    for (const char* name : {"CommitFlush", "CommitRecordWrite"}) {
      RecordSpan(trace, name, node_id_, span_start_us, end_us - span_start_us);
    }
  }
  double publish_s = 0;
  if (committed.ok()) {
    StageClock::time_point publish_start = profile.end;
    if (attrib && publish_start == StageClock::time_point{}) {
      publish_start = StageClock::now();
    }
    {
      MutexLock lock(broadcast_mu_);
      pending_broadcast_.push_back(record);
      pending_broadcast_traces_.push_back(trace);
    }
    if (attrib) {
      publish_s = StageSecondsSince(publish_start);
    }
  }
  if (attrib) {
    metrics_.stages.data_flush->Observe(profile.data_flush_s);
    metrics_.stages.barrier->Observe(profile.barrier_s);
    metrics_.stages.record_write->Observe(profile.record_write_s);
    metrics_.stages.gossip_publish->Observe(publish_s);
    if (sampled) {
      // Child spans laid out sequentially from the round start by measured
      // duration — an approximation of in-stage timestamps (the stages of
      // a fused WAL append are not separately clocked), documented in
      // docs/OBSERVABILITY.md.
      uint64_t start_us = span_start_us;
      for (const auto& [name, stage_s] : {std::pair{"StageDataFlush", profile.data_flush_s},
                                          std::pair{"StageBarrier", profile.barrier_s},
                                          std::pair{"StageRecordWrite", profile.record_write_s},
                                          std::pair{"StageGossipPublish", publish_s}}) {
        const auto dur_us = static_cast<uint64_t>(stage_s * 1e6);
        RecordSpan(trace, name, node_id_, start_us, dur_us);
        start_us += dur_us;
      }
    }
  }
  return committed;
}

void AftNode::DrainRecentCommits(std::vector<CommitRecordPtr>* pruned,
                                 std::vector<CommitRecordPtr>* unpruned,
                                 obs::TraceContext* trace) {
  std::vector<CommitRecordPtr> drained;
  std::vector<obs::TraceContext> traces;
  {
    MutexLock lock(broadcast_mu_);
    drained.swap(pending_broadcast_);
    traces.swap(pending_broadcast_traces_);
  }
  if (trace != nullptr) {
    for (const obs::TraceContext& t : traces) {
      if (t.sampled()) {
        *trace = t;
        break;
      }
    }
  }
  if (unpruned != nullptr) {
    unpruned->insert(unpruned->end(), drained.begin(), drained.end());
  }
  if (pruned != nullptr) {
    // §4.1: locally superseded transactions are omitted from the multicast.
    for (auto& record : drained) {
      if (!IsTransactionSuperseded(*record, index_)) {
        pruned->push_back(std::move(record));
      }
    }
  }
}

void AftNode::ApplyRemoteCommits(const std::vector<CommitRecordPtr>& records) {
  if (!alive()) {
    return;
  }
  std::optional<LogScope> log_scope;
  if (internal::LogEnabled(LogLevel::kDebug)) {
    log_scope.emplace("node=" + node_id_);
  }
  for (const auto& record : records) {
    if (commits_.Contains(record->id)) {
      continue;
    }
    // §4.1: a received transaction already superseded by local state is not
    // merged into the metadata cache.
    if (IsTransactionSuperseded(*record, index_)) {
      metrics_.remote_commits_skipped_superseded->Increment();
      continue;
    }
    if (commits_.Add(record)) {
      index_.AddCommit(*record);
      metrics_.remote_commits_applied->Increment();
    }
  }
}

bool AftNode::AnyRunningTransactionReadsFrom(const TxnId& id) {
  return read_pins_.IsPinned(id);
}

void AftNode::UnpinReads(const TransactionState& txn) {
  for (const TxnId& id : txn.reads_from) {
    read_pins_.Unpin(id);
  }
}

size_t AftNode::RunLocalGcOnce() {
  if (!alive()) {
    return 0;
  }
  // §5.1: remove a committed transaction's metadata when (a) it is
  // superseded and (b) no currently-executing transaction has read from its
  // write set. Oldest transactions are collected first, which mitigates the
  // missing-versions pitfall of §5.2.1.
  std::vector<CommitRecordPtr> snapshot = commits_.Snapshot();
  std::sort(snapshot.begin(), snapshot.end(),
            [](const CommitRecordPtr& a, const CommitRecordPtr& b) { return a->id < b->id; });
  // Records still pending broadcast must reach the bus / fault manager first.
  std::unordered_set<TxnId> pending;
  {
    MutexLock lock(broadcast_mu_);
    for (const auto& record : pending_broadcast_) {
      pending.insert(record->id);
    }
  }
  size_t removed = 0;
  for (const auto& record : snapshot) {
    if (removed >= options_.local_gc_max_per_sweep) {
      break;
    }
    if (pending.contains(record->id)) {
      continue;
    }
    if (!IsTransactionSuperseded(*record, index_)) {
      continue;
    }
    if (AnyRunningTransactionReadsFrom(record->id)) {
      continue;
    }
    // Remove from the index first so Algorithm 1 stops offering these
    // versions, then drop the record and evict cached data.
    index_.RemoveCommit(*record);
    commits_.Remove(record->id);
    for (const std::string& key : record->write_set) {
      data_cache_.Erase(VersionStorageKey(key, record->id.uuid));
    }
    ++removed;
  }
  metrics_.gc_records_removed->Increment(removed);
  return removed;
}

AftNodeStats AftNode::stats() const {
  AftNodeStats s;
  s.txns_started.value = metrics_.txns_started->Value() - baseline_.txns_started.value;
  s.txns_committed.value = metrics_.txns_committed->Value() - baseline_.txns_committed.value;
  s.txns_aborted.value = metrics_.txns_aborted->Value() - baseline_.txns_aborted.value;
  s.reads.value = metrics_.reads->Value() - baseline_.reads.value;
  s.writes.value = metrics_.writes->Value() - baseline_.writes.value;
  s.null_reads.value = metrics_.null_reads->Value() - baseline_.null_reads.value;
  s.read_aborts.value = metrics_.read_aborts->Value() - baseline_.read_aborts.value;
  s.read_refetches.value = metrics_.read_refetches->Value() - baseline_.read_refetches.value;
  s.spills.value = metrics_.spills->Value() - baseline_.spills.value;
  s.gc_records_removed.value =
      metrics_.gc_records_removed->Value() - baseline_.gc_records_removed.value;
  s.remote_commits_applied.value =
      metrics_.remote_commits_applied->Value() - baseline_.remote_commits_applied.value;
  s.remote_commits_skipped_superseded.value =
      metrics_.remote_commits_skipped_superseded->Value() -
      baseline_.remote_commits_skipped_superseded.value;
  return s;
}

bool AftNode::HasLocallyDeleted(const TxnId& id) const {
  return commits_.HasLocallyDeleted(id);
}

void AftNode::AcknowledgeGlobalDelete(const TxnId& id) { commits_.ForgetLocallyDeleted(id); }

bool AftNode::CanGloballyDelete(const TxnId& id) {
  if (!alive()) {
    // A dead node serves no reads; it cannot block deletion.
    return true;
  }
  return !commits_.Contains(id) && !AnyRunningTransactionReadsFrom(id);
}

size_t AftNode::RunningTransactionCount() const {
  MutexLock lock(txns_mu_);
  return txns_.size();
}

size_t AftNode::SweepTimedOutTransactions() {
  const TimePoint now = clock_.Now();
  std::vector<Uuid> expired;
  {
    MutexLock lock(txns_mu_);
    for (const auto& [uuid, txn] : txns_) {
      if (now - txn->start_time > options_.txn_timeout) {
        expired.push_back(uuid);
      }
    }
  }
  size_t aborted = 0;
  for (const Uuid& uuid : expired) {
    if (AbortTransaction(uuid).ok()) {
      ++aborted;
    }
  }
  return aborted;
}

void AftNode::BackgroundLoop() {
  while (!clock_.WaitFor(stop_background_, options_.local_gc_interval)) {
    if (!alive()) {
      return;
    }
    RunLocalGcOnce();
    SweepTimedOutTransactions();
  }
}

}  // namespace aft
