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

// Follows a commit record write that may outlive CommitUnits. A hedged
// record write (see CommitUnits) returns at its first success while the
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

// One transaction's contribution to a fused commit round: its data-version
// writes plus the commit record that makes them visible. CommitUnits()
// persists many units in shared storage rounds while preserving the §3.3
// write-ordering guarantee PER UNIT (see below).
struct CommitUnit {
  std::span<WriteOp> data_ops;  // version objects; may be consumed
  WriteOp commit_record;        // commit-set key + serialized record; may be consumed
  // Optional: runs once this unit's data ops are acknowledged and before its
  // record is written, as part of the barrier. A non-OK status poisons the
  // unit like a failed data op. The node sets it to wait for the
  // transaction's writes issued before the round (§3.3 early writes) and
  // under crash-point injection (CrashPoint::kAfterDataWrite).
  std::function<Status()> after_data_write;
  // Optional: told about a record write that outlives the call (see
  // RecordWriteListener). Must outlive every write it is told about.
  RecordWriteListener* record_listener = nullptr;
};

// Wall-clock decomposition of one CommitUnits call, in seconds. Stages are
// DISJOINT — their sum is the storage portion of the call — so the commit
// path can reconcile per-stage histograms against end-to-end latency:
//   data_flush:   issuing + writing the merged data-version round, excluding
//                 straggler wait (WAL engine: AppendBatch + index publish)
//   barrier:      the §3.3 wait for in-flight data writes to be acknowledged
//                 before any commit record may be written, including the
//                 units' after_data_write hooks (WAL engine: 0 — ordering
//                 rides the single fused append, see local_engine)
//   record_write: the commit-record round (WAL engine: the group-committed
//                 fsync, which is also what makes the data durable)
// Filled only when a profile is passed AND contention::StageTimingEnabled().
//
// Boundary sharing keeps attribution near-free on µs-scale engines: a caller
// that already read the clock at the instant the call began may pass that
// reading in `start` (the engine then opens data_flush there instead of
// taking its own), and an engine leaves its final clock reading in `end`
// (set only when the record stage actually ran) so the caller can open the
// following stage without re-reading the clock. Shared boundaries keep the
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
  // and returns kAlreadyExists otherwise. Costs one PUT either way. A solo
  // round's commit record is written this way (CreateCommitRecord), so its
  // hedged second attempt cannot overwrite it. Merged rounds write records
  // with plain puts (LocalEngine's fused append, BatchPutEach on a bounded
  // pool); the record key is unique per commit attempt and merged rounds
  // never hedge, so such a record is written once and never overwritten.
  virtual Status PutIfAbsent(std::string key, std::string value) = 0;

  // Writes a set of keys. Engines with native batch support (DynamoDB)
  // charge one batched API call per MaxBatchSize() chunk; engines without
  // (S3, cluster-mode Redis across shards) degrade to sequential puts.
  // The batch is NOT atomic — exactly like BatchWriteItem.
  virtual Status BatchPut(std::span<const WriteOp> ops) = 0;

  // BatchPut that consumes the ops: the engine may move each key/value out
  // (the span's strings are left valid-but-unspecified). The commit flush
  // path uses this so payload bytes transfer into the engine without a copy.
  // The default copies via BatchPut for engines that do not care.
  virtual Status BatchPutConsume(std::span<WriteOp> ops) {
    return BatchPut(std::span<const WriteOp>(ops.data(), ops.size()));
  }

  // Like BatchPutConsume, but reports a PER-OP outcome into `statuses`
  // (statuses.size() == ops.size()) instead of collapsing to the first
  // error, and never short-circuits: every op is attempted. Engines with a
  // chunked batch API report the chunk's outcome for each op in it (a
  // failed BatchWriteItem call fails all items of that request). The
  // default issues sequential consuming Puts.
  virtual void BatchPutEach(std::span<WriteOp> ops, std::span<Status> statuses);

  // Cross-transaction group commit: persists `units` in (at most) two
  // merged rounds — one for every unit's data ops, then one for the commit
  // records of the units whose data all landed — filling results[i] per
  // unit (results.size() == units.size()). The §3.3 ordering holds PER
  // UNIT: unit i's commit record is written only after ALL of unit i's
  // data ops were durably acknowledged. A unit with any failed data op is
  // POISONED — results[i] carries the first error and its commit record is
  // never written — without failing batch-mates; stray data versions a
  // poisoned unit did land are invisible orphans (no record references
  // them) left to the fault manager's sweep. Ops may be consumed like
  // BatchPutConsume. A single-unit call degenerates to one BatchPutConsume
  // plus one Put, so the solo path costs nothing extra. Engines may override
  // to fuse the rounds further — the local engine rides a whole batch on
  // one WAL append and one group-committed fsync. A unit's after_data_write
  // hook runs between the two rounds. A non-null `profile` receives the
  // per-stage wall-clock split documented on CommitStageProfile.
  //
  // The solo path writes the record with CreateCommitRecord: a conditional
  // create, which an engine may hedge. A hedged write returns at the first
  // attempt that created the record (or found it created by the other
  // attempt: record keys are unique per commit attempt), and fails only
  // once every attempt has returned, so a failed unit never leaves a write
  // of its record in flight. A losing attempt still in flight when the call
  // returns is reported to the unit's record_listener.
  virtual void CommitUnits(std::span<CommitUnit> units, std::span<Status> results,
                           CommitStageProfile* profile = nullptr);

  // Whether one multi-unit CommitUnits round costs less than the same units
  // committed in separate, concurrent rounds: true only when a round pays
  // some cost ONCE that every separate round would pay again (a
  // group-committed fsync, a slot in a bounded connection pool). Where it
  // is false, merging only makes commits wait for each other and pay the
  // slowest member's tail, so the commit batcher runs every commit in its
  // own round. May change at runtime (SimEngineBase's pool bound).
  virtual bool CommitRoundsShareCost() const { return false; }

  // Whether CommitUnits persists a unit's data ops and its commit record in
  // ONE durable write (the local engine's single WAL append and fsync), so a
  // data op costs no write of its own. Where it is false, every data op is
  // a request the record must wait for, and AftNode puts a commit's
  // payloads inside the record object instead.
  virtual bool CommitUnitsFuseDataWithRecord() const { return false; }

  // Deletes `key`. Deleting a missing key is OK (idempotent).
  virtual Status Delete(const std::string& key) = 0;

  // Deletes many keys; may be batched like BatchPut.
  virtual Status BatchDelete(std::span<const std::string> keys) = 0;

  // Returns all live keys with the given prefix, in lexicographic order.
  virtual Result<std::vector<std::string>> List(const std::string& prefix) = 0;

  // Engine identification / capabilities.
  virtual std::string_view name() const = 0;
  virtual bool SupportsBatchPut() const = 0;
  virtual size_t MaxBatchSize() const = 0;

  // Relative CPU cost of this engine's client library per request, as seen
  // by the process issuing the IO (an AFT node). Redis' RESP protocol is the
  // baseline (1.0); HTTPS + JSON marshalling (DynamoDB) and XML object
  // protocols (S3) cost considerably more. This drives the engine-dependent
  // single-node throughput ceilings of §6.5.1.
  virtual double client_cpu_factor() const { return 1.0; }

  virtual const StorageCounters& counters() const = 0;

 protected:
  // The solo round's record write: one PutIfAbsent, where finding the
  // record already created counts as success. SimEngineBase hedges it (see
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
