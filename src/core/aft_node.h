// An AFT node: the fault-tolerance shim of the paper (§3).
//
// Each node is composed of a transaction manager, an Atomic Write Buffer and
// local metadata/data caches, and sits in front of a shared storage engine.
// All operations of one transaction are served by one node; nodes never
// coordinate on the critical path (§4) — they learn about each other's
// commits via the multicast hooks at the bottom of this interface, which the
// cluster layer (src/cluster) drives.

#ifndef SRC_CORE_AFT_NODE_H_
#define SRC_CORE_AFT_NODE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/common/pool_allocator.h"
#include "src/common/small_vector.h"
#include "src/common/status.h"
#include "src/common/throttle.h"
#include "src/core/commit_set_cache.h"
#include "src/core/data_cache.h"
#include "src/core/key_version_index.h"
#include "src/core/read_algorithm.h"
#include "src/core/read_pin_table.h"
#include "src/core/records.h"
#include "src/core/transaction.h"
#include "src/core/txn_id.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/storage_engine.h"

namespace aft {

// Deterministic crash points used by fault-injection tests to kill a node at
// the worst possible moments of the commit protocol (§3.3.1).
enum class CrashPoint {
  kBeforeDataWrite,
  kAfterDataWrite,    // Data persisted, commit record NOT yet written.
  kAfterCommitWrite,  // Commit record persisted, local caches NOT updated.
};

// The aft_commit_stage_seconds{node=,stage=} family: one histogram child per
// commit-path stage. Stages are DISJOINT slices of one transaction's
// end-to-end commit latency (aft_node_commit_latency_ms), so per-commit
// stage observations sum to (at most) the e2e time — the reconciliation
// contract in docs/OBSERVABILITY.md. Registered find-or-create, so tests
// and benches that look a node's children up share them with the node.
struct CommitStageHistograms {
  obs::Histogram* txn_lock_wait;   // acquiring the transaction's lock
  obs::Histogram* data_flush;      // data-version write, minus barrier
  obs::Histogram* barrier;         // §3.3 straggler wait
  obs::Histogram* record_write;    // commit-record write / WAL fsync
  obs::Histogram* gossip_publish;  // staging the record for broadcast

  static CommitStageHistograms ForNode(const std::string& node_id);
};

struct AftNodeOptions {
  // Data cache budget; 0 disables read caching (the "No Caching" bars of
  // Figure 4).
  uint64_t data_cache_bytes = 64ull * 1024 * 1024;

  // Write-buffer spill threshold (§3.3: a saturated Atomic Write Buffer
  // proactively writes intermediary data to storage).
  uint64_t spill_threshold_bytes = 4ull * 1024 * 1024;

  // Running transactions older than this are aborted by the sweeper
  // ("its transaction will be aborted after a timeout", §3.3.1).
  Duration txn_timeout = std::chrono::seconds(60);

  // Background local-GC sweep period (§5.1) and per-sweep cap.
  Duration local_gc_interval = Millis(1000);
  size_t local_gc_max_per_sweep = 4096;
  // Starts the local-GC and timeout-sweep loop with a standalone node. A
  // ClusterDeployment ignores it: its nodes run the loop exactly when
  // ClusterOptions::start_background_threads is set.
  bool enable_background_threads = false;

  // How many of the newest commit records to load when bootstrapping the
  // metadata cache from the Transaction Commit Set (§3.1).
  size_t bootstrap_commit_limit = 100000;

  // Retries for fetching a version payload that the metadata says exists.
  int storage_read_retries = 4;
  Duration storage_read_backoff = Millis(2);

  // Node service capacity (§6.5.1): each API operation occupies one of
  // `service_cores` virtual cores for one sample of `service_time`. This is
  // what caps a single node's throughput (the paper's 4-core c5.2xlarge
  // plateaus around 600-900 txn/s). Set service_cores = 0 to disable; a
  // stepped SimClock with auto-advance off needs 0, as the model's sleep
  // would block every API call until the clock is advanced.
  // The base is scaled by the engine's client_cpu_factor() — DynamoDB's
  // HTTPS/JSON client burns more node CPU per op than Redis' RESP.
  size_t service_cores = 4;
  LatencyModel service_time = LatencyModel(0.5, 0.2, 0.15);

  // How many (uuid -> commit id) entries to remember for idempotent commit
  // retries.
  size_t committed_uuid_memory = 65536;

  // Fault-injection hook: return true to crash the node at this point.
  // kAfterDataWrite fires inside the commit round, between this
  // transaction's data write and its record write (CommitUnit's
  // after_data_write), on the committing thread.
  std::function<bool(CrashPoint)> crash_hook;
};

// Point-in-time snapshot of one node's cumulative counters. The live values
// are registry-backed instruments (the `aft_node_*` families of
// docs/OBSERVABILITY.md, labeled by node id) exposed via kGetMetrics /
// --metrics-port; `stats()` materializes them into this view. Each cell
// mimics the former `std::atomic` field's `load()` so existing call sites
// compile unchanged.
struct AftNodeStats {
  struct Cell {
    uint64_t value = 0;
    uint64_t load(std::memory_order = std::memory_order_relaxed) const { return value; }
  };
  Cell txns_started;
  Cell txns_committed;
  Cell txns_aborted;
  Cell reads;
  Cell writes;
  Cell null_reads;
  Cell read_aborts;   // kNoValidVersion outcomes.
  Cell read_refetches;  // Fetches redone: the read set moved past the fetched version.
  Cell spills;
  Cell gc_records_removed;
  Cell remote_commits_applied;
  Cell remote_commits_skipped_superseded;
};

class AftNode {
 public:
  AftNode(std::string node_id, StorageEngine& storage, Clock& clock, AftNodeOptions options = {});
  ~AftNode();

  AftNode(const AftNode&) = delete;
  AftNode& operator=(const AftNode&) = delete;

  // Warms the metadata cache from the Transaction Commit Set in storage;
  // called on node start / recovery (§3.1). Also starts the background
  // local-GC and timeout-sweep loop when enable_background_threads is set.
  Status Start();

  // Stops the background loop, if one runs, and waits for it to exit.
  void StopBackground();

  // Simulates a node failure: all subsequent API calls fail with
  // kUnavailable and background threads stop. In-flight transactions that
  // had not committed are lost (§3.3.1).
  void Kill();
  bool alive() const { return alive_.load(std::memory_order_acquire); }

  // ---- Table 1 API ----------------------------------------------------------
  // Begins a transaction and returns its UUID. The commit timestamp (and so
  // the total-order TxnId) is assigned at commit. The no-argument form mints
  // a fresh (possibly sampled) trace context; the other adopts one that
  // arrived over the wire so client-side sampling decides once per
  // transaction.
  Result<Uuid> StartTransaction();
  Result<Uuid> StartTransaction(const obs::TraceContext& trace);

  // Continues a transaction after a function failure using the same ID
  // (§3.3.1) — registers `txid` if this node has never seen it.
  Status AdoptTransaction(const Uuid& txid);

  // Reads `key`. Returns nullopt for the NULL version (key absent under the
  // transaction's snapshot); kAborted when no valid version exists and the
  // transaction must retry (§3.6).
  Result<std::optional<std::string>> Get(const Uuid& txid, const std::string& key);

  // Like Get, but also reports WHICH version was read — used by the
  // evaluation harness to validate read atomicity with the same anomaly
  // checker that audits the baselines (Table 2). The one-key MultiGet.
  struct VersionedRead {
    std::optional<std::string> value;
    // Null for NULL-version reads; TxnId(0, txid) for reads served from the
    // transaction's own write buffer.
    TxnId version;
    CommitRecordPtr record;  // The version's commit record; may be nullptr.
  };
  Result<VersionedRead> GetVersioned(const Uuid& txid, const std::string& key);

  // Table-1-style multi-key read, and the node's one Algorithm-1 read loop:
  // selects a version for every key in one pass under the transaction lock
  // (each selection folded into the read set the next key sees, so the
  // batch equals the sequential composition) and pins it, fetches the
  // payloads concurrently on the shared IoExecutor outside the lock, then
  // revalidates and installs all-or-nothing, planning again if an
  // overlapping operation moved the read set. Results are positional.
  // kNoValidVersion on ANY key aborts the whole call (kAborted), exactly
  // like the sequential read (§3.6).
  Result<std::vector<VersionedRead>> MultiGet(const Uuid& txid,
                                              std::span<const std::string> keys);

  // Buffers an update. Keys must be non-empty and must not contain '/'.
  // A buffer past spill_threshold_bytes sends its dirty versions to storage
  // without waiting (§3.3); the commit then waits for writes still in
  // flight.
  Status Put(const Uuid& txid, const std::string& key, std::string value);

  // Discards the transaction's buffered updates (and deletes any written
  // before commit, once their writes have landed).
  Status AbortTransaction(const Uuid& txid);

  // Atomically persists the transaction's updates (write-ordering protocol,
  // §3.3) and returns the commit ID. Acknowledged only after all data AND
  // the commit record are durable. Idempotent for recently committed UUIDs.
  Result<TxnId> CommitTransaction(const Uuid& txid);

  // ---- Multicast hooks (driven by src/cluster, §4) --------------------------
  // Drains transactions committed locally since the last call. `pruned` gets
  // the supersedence-filtered list for node-to-node multicast (§4.1);
  // `unpruned` the full list for the fault manager (§4.2). When `trace` is
  // non-null it receives the first sampled trace context among the drained
  // commits (if any), so the gossip layer can stamp its broadcast frame.
  void DrainRecentCommits(std::vector<CommitRecordPtr>* pruned,
                          std::vector<CommitRecordPtr>* unpruned,
                          obs::TraceContext* trace = nullptr);

  // Merges commit records learned from a peer or the fault manager; locally
  // superseded records are skipped (§4.1).
  void ApplyRemoteCommits(const std::vector<CommitRecordPtr>& records);

  // ---- Garbage collection (§5) ----------------------------------------------
  // One local metadata GC sweep; returns the number of records removed.
  size_t RunLocalGcOnce();

  // Global-GC protocol: has this node locally dropped `id`'s metadata?
  bool HasLocallyDeleted(const TxnId& id) const;
  // Global GC committed the deletion; forget the tombstone.
  void AcknowledgeGlobalDelete(const TxnId& id);
  // The safety predicate the global GC needs from each node before deleting
  // `id`'s data: this node holds no metadata for it and no running
  // transaction has read from it. Subsumes "locally deleted" and also covers
  // records this node pruned on receipt and so never cached.
  bool CanGloballyDelete(const TxnId& id);

  // Aborts running transactions older than options.txn_timeout.
  size_t SweepTimedOutTransactions();

  // ---- Introspection ---------------------------------------------------------
  const std::string& node_id() const { return node_id_; }
  // Snapshot of the node's registry-backed counters (see AftNodeStats).
  AftNodeStats stats() const;
  // Number of currently open (uncommitted, unaborted) transactions.
  size_t RunningTransactionCount() const;
  const DataCache& data_cache() const { return data_cache_; }
  size_t CommitSetSize() const { return commits_.size(); }
  // Whether this node holds `id`'s commit record or has dropped it in a
  // local GC sweep: a record it knows is no missed commit (§4.2).
  bool KnowsCommit(const TxnId& id) const {
    return commits_.Contains(id) || commits_.HasLocallyDeleted(id);
  }
  StorageEngine& storage() { return storage_; }

 private:
  using TxnPtr = std::shared_ptr<TransactionState>;

  Status CheckAlive() const;
  Result<TxnPtr> FindTransaction(const Uuid& txid);
  // Where PrepareDirtyWrites puts a dirty key.
  enum class DirtyPlacement {
    kSpill,   // Before commit: a version object for each key never written
              // before; the others stay dirty for the commit.
    kRound,   // At commit on an engine fusing data with the record: a
              // version object for each key never written before, the
              // others in the record.
    kRecord,  // At commit on any other engine: every key in the record.
  };
  // Appends the writes that persist the buffer's dirty entries under
  // `writer_id` to `ops`: `placement` picks, per key, a version object or
  // the commit record object. A key placed in the record gets a locator in
  // `locators` (null for kSpill, which places none), its offset relative to
  // the record's first payload; `keys`, if non-null, receives the keys
  // written to version objects. Reads `txn` only; the caller applies the
  // outcome.
  void PrepareDirtyWrites(const TransactionState& txn, const TxnId& writer_id,
                          DirtyPlacement placement, SmallVector<WriteOp, 8>& ops,
                          std::vector<VersionLocator>* locators, std::vector<std::string>* keys)
      REQUIRES(txn.mu);
  // §3.3 spill: sends the dirty entries that may go out before commit as
  // invisible intermediary versions, on an idle shared-executor helper,
  // without waiting. With no helper idle they stay dirty for the commit
  // round.
  void StartEarlyWrites(const TxnPtr& txn) REQUIRES(txn->mu);
  // Fetches a version payload through the data cache with bounded retries.
  // A key with a locator in `record` is read with a ranged GET of the
  // record object, any other from its version object.
  Result<std::string> ReadVersionPayload(const std::string& key, const TxnId& version,
                                         const CommitRecordPtr& record);
  // Runs a prepared commit's storage round — data flush, §3.3 barrier,
  // record write — with no lock held, then stages the record (and trace)
  // for broadcast if it was written; the gossip bus drains it on its next
  // interval round. Observes every commit stage after txn_lock_wait and
  // emits the round's trace spans.
  Status RunCommitRound(CommitUnit& unit, const CommitRecordPtr& record,
                        const obs::TraceContext& trace);
  // True when some running transaction has read from `id` (GC guard, §5.1).
  // O(1) via the read pin table.
  bool AnyRunningTransactionReadsFrom(const TxnId& id);
  // Releases the transaction's read pins (commit/abort epilogue).
  void UnpinReads(const TransactionState& txn) REQUIRES(txn.mu);
  // Shared post-commit bookkeeping (no locks held on entry): idempotence
  // memory, transaction-table erase, counters.
  void FinishCommittedTransaction(const Uuid& txid, const TxnId& commit_id);
  void BackgroundLoop();
  // Sets stop_background_ and wakes the loop without waiting for it.
  void SignalBackgroundStop();
  bool MaybeCrash(CrashPoint point);

  const std::string node_id_;
  StorageEngine& storage_;
  Clock& clock_;
  const AftNodeOptions options_;

  std::atomic<bool> alive_{true};
  std::atomic<bool> stop_background_{false};
  std::thread background_;

  // Transaction table.
  mutable Mutex txns_mu_{"node.txns"};
  std::unordered_map<Uuid, TxnPtr> txns_ GUARDED_BY(txns_mu_);

  // Idempotent-commit memory: uuid -> commit id, bounded FIFO. Pooled nodes:
  // the steady-state insert+evict churn recycles blocks instead of hitting
  // the heap once per commit.
  Mutex committed_mu_{"node.committed"};
  std::unordered_map<Uuid, TxnId, std::hash<Uuid>, std::equal_to<Uuid>,
                     PoolAllocator<std::pair<const Uuid, TxnId>>>
      committed_uuids_ GUARDED_BY(committed_mu_);
  std::vector<Uuid> committed_order_ GUARDED_BY(committed_mu_);
  size_t committed_next_evict_ GUARDED_BY(committed_mu_) = 0;
  // Commit records are allocate_shared'd from this pool (object + control
  // block in one recycled block); the pool is thread-safe, so records may be
  // released from gossip / fault-manager threads.
  PoolAllocator<CommitRecord> record_alloc_;

  // Metadata + data caches.
  CommitSetCache commits_;
  KeyVersionIndex index_;
  DataCache data_cache_;
  ServiceThrottle throttle_;
  ReadPinTable read_pins_;

  // A write of a commit record can outlive the commit: a hedged create
  // returns at its first success while the losing attempt is in flight
  // (src/storage/record_writer.h). Until that attempt returns, the commit
  // id stays pinned in read_pins_, so neither local GC nor
  // CanGloballyDelete lets the record go while a write of it may still
  // land. ~AftNode waits for every such write.
  class InFlightRecords final : public RecordWriteListener {
   public:
    explicit InFlightRecords(ReadPinTable& pins) : pins_(pins) {}
    void RecordWriteStarted(const std::string& record_key) override;
    void RecordWriteSettled(const std::string& record_key) override;
    // Blocks until every started write has settled.
    void AwaitSettled();

   private:
    ReadPinTable& pins_;
    Mutex mu_;
    CondVar settled_cv_;
    size_t in_flight_ GUARDED_BY(mu_) = 0;
  };
  InFlightRecords in_flight_records_{read_pins_};

  // Recently committed records not yet drained for broadcast; guarded by
  // broadcast_mu_. Local GC will not drop records still pending broadcast.
  // pending_broadcast_traces_ carries each record's trace context (parallel
  // vector) so a sampled transaction can be followed into the gossip round.
  Mutex broadcast_mu_{"node.broadcast"};
  std::vector<CommitRecordPtr> pending_broadcast_ GUARDED_BY(broadcast_mu_);
  std::vector<obs::TraceContext> pending_broadcast_traces_ GUARDED_BY(broadcast_mu_);

  // Registry-backed instruments, looked up once at construction (labels:
  // {node=node_id_}). Counters/histograms are owned by the global registry;
  // callbacks_ keeps the point-in-time gauges (cache sizes, write-buffer
  // bytes) registered for this node's lifetime.
  struct Instruments {
    obs::Counter* txns_started;
    obs::Counter* txns_committed;
    obs::Counter* txns_aborted;
    obs::Counter* reads;
    obs::Counter* writes;
    obs::Counter* null_reads;
    obs::Counter* read_aborts;
    obs::Counter* read_refetches;
    obs::Counter* spills;
    obs::Counter* gc_records_removed;
    obs::Counter* remote_commits_applied;
    obs::Counter* remote_commits_skipped_superseded;
    obs::Histogram* commit_latency_ms;
    obs::Histogram* read_latency_ms;
    obs::Histogram* read_walk_depth;
    // aft_commit_stage_seconds children.
    CommitStageHistograms stages;
  };
  Instruments metrics_;
  std::vector<obs::ScopedMetricCallback> metric_callbacks_;
  // Registry counters are cumulative per (name, labels) for the process
  // lifetime — a re-created node with the same id keeps counting up, which
  // is what a scraper expects. stats() subtracts this construction-time
  // baseline so the snapshot stays per-instance, as the old raw atomics
  // were. (Two *concurrently live* nodes sharing an id would still blend.)
  AftNodeStats baseline_;
};

}  // namespace aft

#endif  // SRC_CORE_AFT_NODE_H_
