// Local cache of committed-transaction metadata (the Commit Set Cache, §3.1).
//
// Maps transaction IDs to their commit records. Records are shared_ptr so a
// running transaction can pin the cowritten sets of versions it has read even
// if the GC drops them from the cache concurrently. Also tracks the list of
// transactions committed locally since the last multicast round (§4) and the
// set of locally GC-deleted transaction IDs the global GC asks about (§5.2).
//
// Concurrency: the record map and the locally-deleted set are split into K
// lock-striped shards hashed by TxnId, so the per-key lookups Algorithm 1
// issues on every read no longer serialize on one global lock against the
// commit path's inserts. The visibility contract is unchanged: callers only
// Add() a record AFTER its commit record has persisted in storage (§3.3's
// write-ordering barrier / §3.4), so a transaction becomes visible in this
// index — on whichever shard it hashes to — only once it is durable.
// The recent-commits list is a plain append/drain queue with its own mutex
// (two uncontended points: one writer per commit, one drain per gossip tick).

#ifndef SRC_CORE_COMMIT_SET_CACHE_H_
#define SRC_CORE_COMMIT_SET_CACHE_H_

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/pool_allocator.h"
#include "src/core/records.h"
#include "src/core/txn_id.h"
#include "src/storage/storage_engine.h"

namespace aft {

using CommitRecordPtr = std::shared_ptr<const CommitRecord>;

// Reads the commit records at `keys` for the streaming scans (bootstrap,
// the liveness scan) with maintenance reads, fetching chunks over
// IoExecutor::Shared() on at most `max_parallelism` lanes. The lanes only
// read: records are decoded and allocated on the calling thread. Slot i is
// null when keys[i] is missing or corrupt (logged as a warning from `who`).
std::vector<CommitRecordPtr> FetchCommitRecords(StorageEngine& storage,
                                                std::span<const std::string> keys,
                                                size_t max_parallelism, std::string_view who);

class CommitSetCache {
 public:
  // Shard count: enough stripes that 16+ service threads rarely collide,
  // small enough that Snapshot()/size() sweeps stay cheap.
  static constexpr size_t kNumShards = 16;

  CommitSetCache() = default;

  // Inserts a record; returns false if it was already present.
  bool Add(CommitRecordPtr record);

  // Removes a record (local metadata GC). The ID is remembered in the
  // locally-deleted set until the global GC acknowledges it.
  void Remove(const TxnId& id);

  CommitRecordPtr Lookup(const TxnId& id) const;
  bool Contains(const TxnId& id) const;

  // All currently cached records (GC sweep iterates this snapshot). Shards
  // are snapshotted one at a time: the result is a union of per-shard
  // consistent views, which is all the GC/liveness sweeps ever needed (the
  // old single-lock snapshot raced concurrent Add/Remove the same way).
  std::vector<CommitRecordPtr> Snapshot() const;

  // ---- Multicast bookkeeping (§4) -----------------------------------------
  // Appends to the recently-committed list consumed by the broadcast thread.
  void NoteLocalCommit(const TxnId& id);
  // Drains and returns the recently-committed IDs.
  std::vector<TxnId> TakeRecentCommits();

  // ---- Global GC bookkeeping (§5.2) ----------------------------------------
  bool HasLocallyDeleted(const TxnId& id) const;
  // The global GC confirmed deletion; we can forget the tombstone.
  void ForgetLocallyDeleted(const TxnId& id);

  size_t size() const;
  // Records held by shard `i` (i < kNumShards) — exposed per shard so a
  // scrape can spot skewed striping.
  size_t ShardSize(size_t i) const;

  // Lookup outcome counters (Algorithm 1's per-candidate probes): a hit
  // returned a record, a miss found the id GC'd/absent.
  uint64_t lookup_hits() const { return lookup_hits_.load(std::memory_order_relaxed); }
  uint64_t lookup_misses() const { return lookup_misses_.load(std::memory_order_relaxed); }

 private:
  // Pooled nodes: every commit inserts (and GC later erases) one records
  // entry, so at steady state the churn recycles pool blocks instead of
  // allocating per commit.
  struct Shard {
    // One shared site across shards: the profiler ranks the cache as a
    // whole, per-shard series would be noise.
    static contention::ContentionSite* ContentionSiteFor() {
      static contention::ContentionSite* site = contention::LockSite("commit_cache.shard");
      return site;
    }
    mutable SharedMutex mu{ContentionSiteFor()};
    std::unordered_map<TxnId, CommitRecordPtr, std::hash<TxnId>, std::equal_to<TxnId>,
                       PoolAllocator<std::pair<const TxnId, CommitRecordPtr>>>
        records GUARDED_BY(mu);
    std::unordered_set<TxnId, std::hash<TxnId>, std::equal_to<TxnId>, PoolAllocator<TxnId>>
        locally_deleted GUARDED_BY(mu);
  };

  Shard& ShardFor(const TxnId& id) { return shards_[std::hash<TxnId>{}(id) % kNumShards]; }
  const Shard& ShardFor(const TxnId& id) const {
    return shards_[std::hash<TxnId>{}(id) % kNumShards];
  }

  std::array<Shard, kNumShards> shards_;
  mutable std::atomic<uint64_t> lookup_hits_{0};
  mutable std::atomic<uint64_t> lookup_misses_{0};

  mutable Mutex recent_mu_{"commit_cache.recent"};
  std::vector<TxnId> recent_commits_ GUARDED_BY(recent_mu_);
};

}  // namespace aft

#endif  // SRC_CORE_COMMIT_SET_CACHE_H_
