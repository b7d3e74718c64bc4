// Durable, WAL-backed local storage engine.
//
// The first non-simulated engine in the tree: a log-structured key/value
// store over a directory of WAL files (src/storage/wal.h), with crash
// recovery (src/storage/wal_recovery.h) and background compaction. It
// implements the full StorageEngine interface, so AFT's commit protocol —
// the §3.3 write-ordering barrier, the IoExecutor parallel flush, the fault
// manager's sweeps — runs over it unchanged.
//
// Data layout:
//   * The WAL is the only on-disk structure; there is no separate value
//     store. Every Put/Delete appends a record; the files are the database.
//   * An in-memory index maps each live key to (file, value offset, length).
//     Reads are one pread(2) of exactly the value bytes; List walks the
//     sorted index under a shared lock.
//   * The index is rebuilt on Open by replaying the log.
//
// Durability contract (docs/PROTOCOLS.md):
//   * A write call returns only after its records are fdatasync-durable
//     (group-committed: concurrent writers share one fsync).
//   * Writes become VISIBLE to concurrent readers when the index is updated,
//     which happens after the writev but before the fsync — the same
//     "acknowledged implies durable, visible may precede acknowledged"
//     semantics AFT assumes of cloud stores (§3.1). A crash can take back a
//     visible-but-unacknowledged write; it can never take back an
//     acknowledged one. Un-acknowledged version records resurface as
//     orphans and are reaped by the fault manager's sweep.
//   * Batches are NOT atomic (BatchWriteItem semantics): each op appends its
//     own record; a mid-batch failure leaves earlier ops applied.
//
// Compaction: deleting or overwriting a key turns its old record into dead
// bytes. When the frozen (non-active) files' dead bytes pass the configured
// ratio, a background pass rewrites their live records into a fresh
// compacted file (named so it REPLAYS in the position of the files it
// replaces — see wal.h on file keys), then atomically renames it in and
// unlinks the inputs. In-flight preads on replaced files stay valid: read
// fds are refcounted and POSIX keeps unlinked-but-open files readable.

#ifndef SRC_STORAGE_LOCAL_ENGINE_H_
#define SRC_STORAGE_LOCAL_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/common/pool_allocator.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/storage/storage_engine.h"
#include "src/storage/wal.h"
#include "src/storage/wal_recovery.h"

namespace aft {

struct LocalEngineOptions {
  // WAL tuning (see WalOptions).
  uint64_t max_log_bytes = 64ull << 20;
  Duration flush_interval = Duration::zero();
  bool fdatasync = true;

  // Compact when the frozen files' dead bytes exceed BOTH thresholds.
  double compact_min_dead_ratio = 0.5;
  uint64_t compact_min_dead_bytes = 8ull << 20;
  // Background compaction poll cadence (real time). Tests that want
  // deterministic compaction set start_compaction_thread=false and call
  // CompactNow().
  Duration compaction_poll_interval = Millis(500);
  bool start_compaction_thread = true;
};

class LocalEngine final : public StorageEngine {
 public:
  // Creates `data_dir` if missing, replays the WAL into a fresh index
  // (truncating a torn tail per the recovery rules), and opens a new active
  // log file.
  static Result<std::unique_ptr<LocalEngine>> Open(std::string data_dir,
                                                   LocalEngineOptions options = {});
  ~LocalEngine() override;

  Result<std::string> Get(const std::string& key) override;
  // Native ranged read: preads only the requested window of the value.
  Result<std::string> GetRange(const std::string& key, uint64_t offset,
                               uint64_t length) override;
  // Concurrent preads on the shared IoExecutor for large key sets.
  std::vector<Result<std::string>> MultiGet(std::span<const std::string> keys) override;
  Status Put(std::string key, std::string value) override;
  // Atomic against other conditional creates, the only writers of a record
  // key: creates take turns between the existence check and the append.
  Status PutIfAbsent(std::string key, std::string value) override;
  // Consumes nothing: value bytes stream from the caller's buffers into the
  // kernel via writev and are never copied into engine memory at all.
  Status BatchPut(std::span<WriteOp> ops) override;
  // Fused commit: the unit's data versions followed by its commit record
  // ride ONE WAL append (one writev) and one fsync, which the WAL's group
  // commit shares with every concurrent appender. §3.3 ordering falls out
  // of append order plus prefix-truncating replay: the record is appended
  // after its data, so a record that survives recovery implies its data
  // survived. A data op the injector rejects fails the commit: the record
  // is withheld (already-accepted data ops still append — non-atomic batch
  // semantics — and stay invisible orphans).
  // Stage mapping for `profile` (fused path — see CommitStageProfile):
  // data_flush = AppendBatch + index publication, record_write = the
  // fsync (data and record become durable together), barrier = 0
  // (ordering rides append order, no separate wait).
  // A unit with an after_data_write hook has no point between its data and
  // its record in one append, so it takes the default path instead
  // (crash-point injection, or a transaction whose buffer spilled past the
  // threshold and must wait for its early writes).
  Status Commit(CommitUnit& unit, CommitStageProfile* profile = nullptr) override;
  // A unit's data ops and record ride the same append (see Commit).
  bool CommitUnitsFuseDataWithRecord() const override { return true; }
  Status Delete(const std::string& key) override;
  Status BatchDelete(std::span<const std::string> keys) override;
  Result<std::vector<std::string>> List(const std::string& prefix) override;

  std::string_view name() const override { return "local"; }
  size_t MaxBatchSize() const override { return 1024; }
  const StorageCounters& counters() const override { return counters_; }

  // --- maintenance / test surface ---

  // Rotates the active file, then compacts ALL frozen files regardless of
  // thresholds. Blocks until done.
  Status CompactNow();

  // Test hook: every write op's key is offered to `fn` before it is
  // appended; a non-OK status fails that op (the rest of the batch is still
  // attempted, matching the engines' non-atomic batch semantics). Pass
  // nullptr to clear.
  void SetWriteFailureInjector(std::function<Status(std::string_view key)> fn);

  struct FileStats {
    size_t files = 0;          // on-disk log files (active included)
    uint64_t total_bytes = 0;  // record bytes across them
    uint64_t dead_bytes = 0;   // superseded/deleted record bytes
  };
  FileStats file_stats() const;
  Wal::Stats wal_stats() const { return wal_->stats(); }
  uint64_t compactions() const { return compactions_.load(std::memory_order_relaxed); }
  uint64_t compaction_reclaimed_bytes() const {
    return compaction_reclaimed_bytes_.load(std::memory_order_relaxed);
  }
  const std::string& data_dir() const { return data_dir_; }

 private:
  // Where a live key's value bytes sit on disk.
  struct Locator {
    uint64_t file_key = 0;
    uint64_t value_offset = 0;
    uint32_t value_len = 0;
    bool operator==(const Locator&) const = default;
  };
  // Refcounted read fd: preads in flight keep a replaced file's handle (and
  // therefore its unlinked inode) alive until they finish.
  struct FileHandle {
    int fd = -1;
    ~FileHandle();
  };
  struct FileState {
    std::shared_ptr<FileHandle> handle;
    uint64_t total_bytes = 0;
    uint64_t dead_bytes = 0;
  };

  LocalEngine(std::string data_dir, LocalEngineOptions options);

  // The one write path: injector filtering, WAL append (one writev), index
  // update, group-commit sync. `api_calls` charging differs per entry point.
  Status ApplyWrites(std::span<const Wal::AppendOp> ops);
  // The shared tail of every write: one AppendBatch under the compaction
  // gate, index publication, one Sync. Callers have already run the
  // injector over `ops`. Non-null out-params receive the wall-clock split
  // (append+index vs sync) for commit-stage attribution.
  Status AppendIndexSync(std::span<const Wal::AppendOp> ops, double* append_s = nullptr,
                         double* sync_s = nullptr);

  // Index mutation for one applied op; does the dead-byte accounting.
  void ApplyIndexOp(wal::RecordOp op, std::string_view key, const Locator& loc,
                    uint64_t record_bytes) REQUIRES(index_mu_);
  // Recovery callback: one replayed record into the index.
  void ApplyReplayEvent(const WalRecordEvent& event);
  // Registers a file the index is about to reference (opens its read fd).
  Status EnsureFileLocked(uint64_t file_key) REQUIRES(index_mu_);

  // Resolves a key to its locator AND the (refcounted) read handle of the
  // file it lives in, in one critical section — compaction repoints/retires
  // atomically under the writer lock, so the pair is only coherent when
  // looked up together.
  Status ResolveLocked(const std::string& key, Locator* loc,
                       std::shared_ptr<FileHandle>* handle) REQUIRES_SHARED(index_mu_);

  Result<std::string> PreadValue(const FileHandle& handle, const Locator& loc, uint64_t offset,
                                 uint64_t length);

  void CompactorMain();
  // One compaction pass over the current frozen set; no-op when `force` is
  // false and the dead-byte thresholds are not met.
  Status MaybeCompact(bool force);

  const std::string data_dir_;
  const LocalEngineOptions options_;

  std::unique_ptr<Wal> wal_;

  // Index keys and tree nodes are carved from a MemoryPool: a commit's two
  // index inserts (version key + commit-record key) must not touch the
  // global allocator at steady state (the bench gate's allocs/txn ceiling).
  // Transparent string_view comparison keeps lookups allocation-free too.
  using IndexKey = std::basic_string<char, std::char_traits<char>, PoolAllocator<char>>;
  struct IndexKeyLess {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const { return a < b; }
  };
  using IndexMap = std::map<IndexKey, Locator, IndexKeyLess,
                            PoolAllocator<std::pair<const IndexKey, Locator>>>;

  // Barrier between in-flight writes and compaction's input selection. A
  // writer holds it SHARED from its WAL append through its index
  // publication; compaction holds it EXCLUSIVE (briefly) while snapshotting
  // inputs. Without it, a batch whose append froze the file (rotation fires
  // inside AppendBatch) but whose index update has not run yet is invisible
  // to the snapshot — compaction would select and unlink a file holding
  // records the index is about to reference. Writes starting after the
  // snapshot land at or past the active sequence, which the snapshot
  // excludes, so they need no gate. Acquired before index_mu_.
  mutable SharedMutex inflight_mu_{"engine.inflight"};
  mutable SharedMutex index_mu_{"engine.index"};
  std::shared_ptr<MemoryPool> index_pool_ = std::make_shared<MemoryPool>();
  IndexMap index_ GUARDED_BY(index_mu_){
      IndexKeyLess{}, PoolAllocator<std::pair<const IndexKey, Locator>>(index_pool_)};
  std::map<uint64_t, FileState> files_ GUARDED_BY(index_mu_);

  // The injector runs outside injector_mu_ (callers take a snapshot), so a
  // slow verdict stalls only the write it judges.
  using WriteFailureInjector = std::function<Status(std::string_view)>;
  std::shared_ptr<const WriteFailureInjector> InjectorSnapshot();
  std::atomic<bool> has_injector_{false};
  Mutex injector_mu_;
  std::shared_ptr<const WriteFailureInjector> injector_ GUARDED_BY(injector_mu_);

  // Serializes PutIfAbsent calls; acquired before inflight_mu_.
  Mutex create_mu_{"engine.create"};

  // Compaction control + guard: at most one pass runs at a time.
  Mutex compact_mu_;
  CondVar compact_cv_;
  bool stop_compactor_ GUARDED_BY(compact_mu_) = false;
  bool compaction_running_ GUARDED_BY(compact_mu_) = false;
  std::thread compactor_;

  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> compaction_reclaimed_bytes_{0};

  StorageCounters counters_;
  obs::Histogram* op_latency_get_ = nullptr;
  obs::Histogram* op_latency_put_ = nullptr;
  obs::Histogram* op_latency_delete_ = nullptr;
  obs::Histogram* op_latency_list_ = nullptr;
  obs::Histogram* op_latency_batch_ = nullptr;
  std::vector<obs::ScopedMetricCallback> metric_callbacks_;
};

}  // namespace aft

#endif  // SRC_STORAGE_LOCAL_ENGINE_H_
