// Abstract storage engine interface.
//
// AFT's only assumption about the storage layer is that updates are durable
// once acknowledged (§3.1); it explicitly does NOT rely on the engine for
// consistency or immediate visibility. The simulated engines below therefore
// expose the weakest practical semantics of their real counterparts:
//
//  * `SimS3`      — object store; slow, high-variance, no batching; overwrite
//                   PUTs are eventually consistent (2020-era S3 semantics).
//  * `SimDynamo`  — KV store; batch writes up to 25 items; eventually
//                   consistent reads for overwritten items; an optional
//                   serializable transaction mode with conflict aborts.
//  * `SimRedis`   — sharded in-memory store; linearizable per shard; MSET
//                   only within one shard.

#ifndef SRC_STORAGE_STORAGE_ENGINE_H_
#define SRC_STORAGE_STORAGE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace aft {

// A single write in a batch.
struct WriteOp {
  std::string key;
  std::string value;
};

// Follows a commit record write that may outlive Commit. A hedged
// record write (see Commit) returns at its first success while the
// other attempt of it may still be in flight. Started runs on the calling
// thread before the write leaves it, and only for a write that may outlive
// the call; Settled runs once every attempt of that write has returned, on
// the thread of the last one. Both receive the record's storage key.
class RecordWriteListener {
 public:
  virtual void RecordWriteStarted(const std::string& record_key) = 0;
  virtual void RecordWriteSettled(const std::string& record_key) = 0;

 protected:
  ~RecordWriteListener() = default;
};

// One transaction's commit: its data-version writes plus the commit record
// that makes them visible. Commit() persists it under the §3.3
// write-ordering guarantee (see below).
struct CommitUnit {
  std::span<WriteOp> data_ops;  // version objects; may be consumed
  WriteOp commit_record;        // commit-set key + serialized record; may be consumed
  // Optional: runs once this unit's data ops are acknowledged and before its
  // record is written, as part of the barrier. A non-OK status fails the
  // commit like a failed data op. The node sets it to wait for the
  // transaction's writes issued before the round (§3.3 early writes) and
  // under crash-point injection (CrashPoint::kAfterDataWrite).
  std::function<Status()> after_data_write;
  // Optional: told about a record write that outlives the call (see
  // RecordWriteListener). Must outlive every write it is told about.
  RecordWriteListener* record_listener = nullptr;
};

// Wall-clock decomposition of one Commit call, in seconds. Stages are
// DISJOINT — their sum is the storage portion of the call — so the commit
// path can reconcile per-stage histograms against end-to-end latency:
//   data_flush:   issuing + writing the data versions, excluding straggler
//                 wait (WAL engine: AppendBatch + index publish)
//   barrier:      the §3.3 wait for in-flight data writes to be acknowledged
//                 before the commit record may be written, including the
//                 unit's after_data_write hook (WAL engine: 0 — ordering
//                 rides the single fused append, see local_engine)
//   record_write: the commit-record write (WAL engine: the group-committed
//                 fsync, which is also what makes the data durable)
// Filled only when a profile is passed AND contention::StageTimingEnabled().
//
// Boundary sharing keeps attribution near-free on µs-scale engines: a caller
// that already read the clock at the instant the call began may pass that
// reading in `start` (the engine then opens data_flush there instead of
// taking its own), and an engine may leave its final clock reading in `end`
// so the caller can open the following stage without re-reading the clock. Shared boundaries keep the
// stages exactly contiguous, so they stay disjoint by construction.
struct CommitStageProfile {
  double data_flush_s = 0;
  double barrier_s = 0;
  double record_write_s = 0;
  std::chrono::steady_clock::time_point start{};
  std::chrono::steady_clock::time_point end{};
};

// Cumulative operation counters, readable while the engine is in use.
struct StorageCounters {
  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> puts{0};
  std::atomic<uint64_t> batch_puts{0};
  std::atomic<uint64_t> deletes{0};
  std::atomic<uint64_t> lists{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> api_calls{0};
  std::atomic<uint64_t> stale_reads{0};
  std::atomic<uint64_t> transient_faults{0};
};

// Thread-safe storage engine. All calls block for the engine's simulated
// latency before returning.
class StorageEngine {
 public:
  virtual ~StorageEngine() = default;

  // Reads the value of `key`. Returns kNotFound if the key does not exist
  // (or is not yet visible to this read under the engine's consistency
  // model).
  virtual Result<std::string> Get(const std::string& key) = 0;

  // Ranged read: `length` bytes starting at `offset` (S3's Range header).
  // The default fetches the whole object and slices — engines with native
  // range support override this to charge only the bytes transferred.
  virtual Result<std::string> GetRange(const std::string& key, uint64_t offset, uint64_t length);

  // Reads many keys at once; returns one Result per key, positionally
  // (missing keys are kNotFound entries, never a whole-call failure). The
  // default issues sequential Gets; the simulated engines override it to
  // dispatch the gets concurrently, the way real client libraries fan out
  // parallel requests, so a k-key read costs ~one latency sample instead
  // of k.
  virtual std::vector<Result<std::string>> MultiGet(std::span<const std::string> keys);

  // Durably writes `key = value`, overwriting any previous value. Parameters
  // are by-value: the storage boundary owns the bytes, so callers on the
  // commit hot path move their buffers straight through into the engine
  // instead of handing it strings to copy.
  virtual Status Put(std::string key, std::string value) = 0;

  // Conditional create (S3 `If-None-Match: *`, DynamoDB
  // `attribute_not_exists`, Redis `SET NX`): writes `key = value` only if
  // `key` holds no object when the write lands, atomically with that check,
  // and returns kAlreadyExists otherwise. Costs one PUT either way. A
  // commit record is written this way (CreateCommitRecord), so a hedged
  // second attempt cannot overwrite it. Only LocalEngine's fused append
  // writes records with plain puts; it never hedges, and the record key is
  // unique per commit attempt, so such a record is written once.
  virtual Status PutIfAbsent(std::string key, std::string value) = 0;

  // Writes a set of keys and may move each key/value out (the span's
  // strings are left valid-but-unspecified); a caller that reuses its ops
  // passes a copy. Engines with native batch support (DynamoDB) charge one
  // batched API call per MaxBatchSize() chunk; engines without (S3,
  // cluster-mode Redis across shards) degrade to per-key puts. The batch is
  // NOT atomic — exactly like BatchWriteItem.
  virtual Status BatchPut(std::span<WriteOp> ops) = 0;

  // Persists the unit's data ops and then its commit record. The §3.3
  // ordering holds: the record is written only after ALL of the data ops
  // were durably acknowledged and the after_data_write hook returned OK. A
  // failed data write or hook fails the commit and its record is never
  // written; stray data versions that did land are invisible orphans (no
  // record references them) left to the fault manager's sweep. Ops may be
  // consumed like BatchPut's. The default is the paper's sequence: one
  // BatchPut, the hook, then CreateCommitRecord. The local engine
  // overrides it to ride data and record on one WAL append; its WAL's group
  // commit lets one fsync acknowledge every concurrent commit. A non-null
  // `profile` receives the per-stage wall-clock split documented on
  // CommitStageProfile.
  //
  // CreateCommitRecord is a conditional create, which an engine may hedge.
  // A hedged write returns at the first attempt that created the record (or
  // found it created by the other attempt: record keys are unique per
  // commit attempt), and fails only once every attempt has returned, so a
  // failed commit never leaves a write of its record in flight. A losing
  // attempt still in flight when the call returns is reported to the
  // unit's record_listener.
  virtual Status Commit(CommitUnit& unit, CommitStageProfile* profile = nullptr);

  // Whether Commit persists a unit's data ops and its commit record in ONE
  // durable write (the local engine's single WAL append and fsync), so a
  // data op costs no write of its own. It steers where payloads go: where
  // it is false, every data op is a request the record must wait for, so
  // AftNode puts a commit's payloads inside the record object instead. The
  // fault manager's global GC reads it too: only where it is true may a
  // record that locates every payload still have version objects.
  virtual bool CommitUnitsFuseDataWithRecord() const { return false; }

  // Deletes `key`. Deleting a missing key is OK (idempotent).
  virtual Status Delete(const std::string& key) = 0;

  // Deletes many keys; may be batched like BatchPut.
  virtual Status BatchDelete(std::span<const std::string> keys) = 0;

  // Returns all live keys with the given prefix, in lexicographic order.
  virtual Result<std::vector<std::string>> List(const std::string& prefix) = 0;

  // Engine identification / capabilities.
  virtual std::string_view name() const = 0;
  // Items per batched write call; 1 means the engine has no batch API.
  virtual size_t MaxBatchSize() const = 0;

  // Relative CPU cost of this engine's client library per request, as seen
  // by the process issuing the IO (an AFT node). Redis' RESP protocol is the
  // baseline (1.0); HTTPS + JSON marshalling (DynamoDB) and XML object
  // protocols (S3) cost considerably more. This drives the engine-dependent
  // single-node throughput ceilings of §6.5.1.
  virtual double client_cpu_factor() const { return 1.0; }

  virtual const StorageCounters& counters() const = 0;

 protected:
  // A commit's record write: one PutIfAbsent, where finding the record
  // already created counts as success. SimEngineBase hedges it (see
  // src/storage/record_writer.h). `record` may be consumed.
  virtual Status CreateCommitRecord(WriteOp& record, RecordWriteListener* listener);
};

inline Result<std::string> StorageEngine::GetRange(const std::string& key, uint64_t offset,
                                                   uint64_t length) {
  AFT_ASSIGN_OR_RETURN(std::string whole, Get(key));
  if (offset > whole.size()) {
    return Status::InvalidArgument("range offset beyond object size");
  }
  return whole.substr(offset, length);
}

inline std::vector<Result<std::string>> StorageEngine::MultiGet(
    std::span<const std::string> keys) {
  std::vector<Result<std::string>> results;
  results.reserve(keys.size());
  for (const std::string& key : keys) {
    results.push_back(Get(key));
  }
  return results;
}

}  // namespace aft

#endif  // SRC_STORAGE_STORAGE_ENGINE_H_
