// Tests for the parallel storage I/O layer: the shared IoExecutor, the
// concurrent commit flush and its §3.3 write-ordering barrier under partial
// failure, the multi-key read path (ReadSetFold + AftNode::MultiGet),
// and the parallelized fault-manager maintenance passes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/deployment.h"
#include "src/common/io_executor.h"
#include "src/core/aft_node.h"
#include "src/core/read_algorithm.h"
#include "src/storage/sim_dynamo.h"
#include "src/storage/sim_engine_base.h"

namespace aft {
namespace {

EngineLatencyProfile ZeroProfile() {
  return EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(), LatencyModel::Zero(),
                              LatencyModel::Zero(), LatencyModel::Zero(), LatencyModel::Zero()};
}

SimDynamoOptions InstantDynamo() {
  SimDynamoOptions options;
  options.profile = ZeroProfile();
  options.staleness = StalenessModel{};
  options.txn_call = LatencyModel::Zero();
  return options;
}

// ---- IoExecutor -------------------------------------------------------------------

TEST(IoExecutorTest, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  const Status status = IoExecutor::Shared().ParallelFor(hits.size(), [&](size_t i) {
    hits[i].fetch_add(1);
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(IoExecutorTest, ReturnsFirstErrorByIndexWithoutEarlyExit) {
  std::vector<std::atomic<int>> hits(64);
  const Status status = IoExecutor::Shared().ParallelFor(hits.size(), [&](size_t i) {
    hits[i].fetch_add(1);
    if (i == 7 || i == 50) {
      return Status::Unavailable("boom at " + std::to_string(i));
    }
    return Status::Ok();
  });
  // The lowest failing index wins deterministically...
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_NE(status.ToString().find("boom at 7"), std::string::npos) << status.ToString();
  // ...and a failure never cancels the remaining items: in-flight parallel
  // writes cannot be recalled, so the executor runs everything (§3.3 relies
  // on this — stray versions become invisible orphans, not torn state).
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(IoExecutorTest, MaxParallelismCapsConcurrency) {
  std::atomic<int> current{0};
  std::atomic<int> peak{0};
  const Status status = IoExecutor::Shared().ParallelFor(
      32,
      [&](size_t) {
        const int now = current.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        current.fetch_sub(1);
        return Status::Ok();
      },
      /*max_parallelism=*/2);
  EXPECT_TRUE(status.ok());
  EXPECT_LE(peak.load(), 2);
}

TEST(IoExecutorTest, NestedParallelForCompletes) {
  // Commit flush (outer) over an engine whose BatchPut fans out again
  // (inner) must not deadlock even though both levels share the executor:
  // the caller of each level participates in its own drain.
  std::atomic<int> total{0};
  const Status status = IoExecutor::Shared().ParallelFor(4, [&](size_t) {
    return IoExecutor::Shared().ParallelFor(8, [&](size_t) {
      total.fetch_add(1);
      return Status::Ok();
    });
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(total.load(), 32);
}

TEST(IoExecutorTest, ZeroAndSingleItemShortCircuit) {
  int calls = 0;
  EXPECT_TRUE(IoExecutor::Shared()
                  .ParallelFor(0,
                               [&](size_t) {
                                 ++calls;
                                 return Status::Ok();
                               })
                  .ok());
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(IoExecutor::Shared()
                  .ParallelFor(1,
                               [&](size_t) {
                                 ++calls;
                                 return Status::Ok();
                               })
                  .ok());
  EXPECT_EQ(calls, 1);
}

// The documented answer to ThreadPool's destructor semantics (pending tasks
// are DROPPED): a commit flush never waits on pool drain, only on its own
// per-call latch, so a shut-down executor still completes every item inline
// on the calling thread.
TEST(IoExecutorTest, ShutdownExecutorStillCompletesAllWorkInline) {
  IoExecutor executor(2);
  executor.Shutdown();
  std::vector<std::atomic<int>> hits(16);
  const Status status = executor.ParallelFor(hits.size(), [&](size_t i) {
    hits[i].fetch_add(1);
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

// ---- Concurrent commit flush ------------------------------------------------------

// Zero-latency engine with no batch API (S3-like: every version object is
// its own PUT, so the commit flush must fan them out concurrently).
class PerKeyEngine : public SimEngineBase {
 public:
  explicit PerKeyEngine(Clock& clock)
      : SimEngineBase("per-key", clock, ZeroProfile(), StalenessModel{}, 16) {}
  size_t MaxBatchSize() const override { return 1; }
};

// Proof of concurrency: version-object PUTs rendezvous — each blocks until
// all `expected` writers have arrived. Serial dispatch would see every PUT
// time out alone; parallel dispatch gets all of them through the barrier.
class RendezvousEngine final : public PerKeyEngine {
 public:
  RendezvousEngine(Clock& clock, size_t expected) : PerKeyEngine(clock), expected_(expected) {}

  Status Put(std::string key, std::string value) override {
    if (key.compare(0, 2, kVersionPrefix) == 0) {
      std::unique_lock<std::mutex> lock(mu_);
      ++arrived_;
      cv_.notify_all();
      if (cv_.wait_for(lock, std::chrono::seconds(2), [&] { return arrived_ >= expected_; })) {
        ++rendezvous_;
      }
    }
    return PerKeyEngine::Put(std::move(key), std::move(value));
  }

  size_t rendezvous() {
    std::lock_guard<std::mutex> lock(mu_);
    return rendezvous_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const size_t expected_;
  size_t arrived_ = 0;
  size_t rendezvous_ = 0;
};

// Version objects go out before the record when the write buffer spills:
// here the fourth Put passes the threshold and sends all four at once.
TEST(ParallelCommitTest, SpillFlushDispatchesWritesConcurrently) {
  SimClock clock;
  RendezvousEngine storage(clock, 4);
  AftNodeOptions options;
  options.spill_threshold_bytes = 3 * 3;  // Three "v-?" payloads fit.
  AftNode node("n0", storage, clock, options);
  ASSERT_TRUE(node.Start().ok());

  auto txid = node.StartTransaction();
  ASSERT_TRUE(txid.ok());
  for (const std::string key : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(node.Put(*txid, key, "v-" + key).ok());
  }
  ASSERT_TRUE(node.CommitTransaction(*txid).ok());
  // All four version writes were in flight at once.
  EXPECT_EQ(storage.rendezvous(), 4u);
}

TEST(ParallelCommitTest, InlineCommitIsOnePut) {
  SimClock clock;
  PerKeyEngine storage(clock);
  AftNode node("n0", storage, clock);
  ASSERT_TRUE(node.Start().ok());

  auto txid = node.StartTransaction();
  ASSERT_TRUE(txid.ok());
  for (const std::string key : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(node.Put(*txid, key, "v-" + key).ok());
  }
  const uint64_t puts_before = storage.counters().puts.load();
  ASSERT_TRUE(node.CommitTransaction(*txid).ok());
  EXPECT_EQ(storage.counters().puts.load() - puts_before, 1u);
  EXPECT_TRUE(storage.List(kVersionPrefix)->empty());
}

// Engine that fails the PUT of any storage key containing `marker`.
class PoisonedEngine final : public PerKeyEngine {
 public:
  using PerKeyEngine::PerKeyEngine;

  Status Put(std::string key, std::string value) override {
    if (Poisoned(key)) {
      return Status::Unavailable("injected write failure for " + key);
    }
    return PerKeyEngine::Put(std::move(key), std::move(value));
  }
  Status PutIfAbsent(std::string key, std::string value) override {
    if (Poisoned(key)) {
      return Status::Unavailable("injected write failure for " + key);
    }
    return PerKeyEngine::PutIfAbsent(std::move(key), std::move(value));
  }

  void Poison(std::string marker) { poison_ = std::move(marker); }
  uint64_t attempted_poison_puts() const { return attempted_poison_puts_.load(); }

 private:
  bool Poisoned(const std::string& key) {
    if (poison_.empty() || key.find(poison_) == std::string::npos) {
      return false;
    }
    attempted_poison_puts_.fetch_add(1);
    return true;
  }

  std::string poison_;  // Set before the commit under test; read-only after.
  std::atomic<uint64_t> attempted_poison_puts_{0};
};

// The §3.3 commit barrier under partial flush failure: one of six parallel
// data writes fails, so the commit record must never be written and NO
// partial state may be visible to any reader — the five versions that did
// land are invisible orphans. The sixth Put passes the spill threshold and
// sends all six versions at once.
TEST(ParallelCommitTest, PartialFlushFailureWritesNoCommitRecord) {
  SimClock clock;
  PoisonedEngine storage(clock);
  storage.Poison("/k3/");  // Fails the version object of user key "k3".
  AftNodeOptions options;
  options.spill_threshold_bytes = 5 * 10;  // Five "payload-k?" payloads fit.
  AftNode node("n0", storage, clock, options);
  ASSERT_TRUE(node.Start().ok());

  auto txid = node.StartTransaction();
  ASSERT_TRUE(txid.ok());
  const std::vector<std::string> keys = {"k0", "k1", "k2", "k3", "k4", "k5"};
  for (const std::string& key : keys) {
    ASSERT_TRUE(node.Put(*txid, key, "payload-" + key).ok());
  }
  const auto committed = node.CommitTransaction(*txid);
  ASSERT_FALSE(committed.ok());
  EXPECT_TRUE(committed.status().IsUnavailable());
  EXPECT_GE(storage.attempted_poison_puts(), 1u);

  // Barrier holds: no commit record reached storage...
  auto commit_keys = storage.List(kCommitPrefix);
  ASSERT_TRUE(commit_keys.ok());
  EXPECT_TRUE(commit_keys->empty());
  // ...while the successful parallel writes are present as orphans (they
  // could not be recalled once dispatched) awaiting the orphan sweep.
  auto version_keys = storage.List(kVersionPrefix);
  ASSERT_TRUE(version_keys.ok());
  EXPECT_EQ(version_keys->size(), keys.size() - 1);

  // No partial reads: a fresh node bootstrapping from the same storage sees
  // none of the transaction's keys.
  AftNode fresh("n1", storage, clock);
  ASSERT_TRUE(fresh.Start().ok());
  auto reader = fresh.StartTransaction();
  ASSERT_TRUE(reader.ok());
  for (const std::string& key : keys) {
    auto read = fresh.Get(*reader, key);
    ASSERT_TRUE(read.ok()) << key;
    EXPECT_FALSE(read->has_value()) << "partial commit visible at " << key;
  }
}

// The inline counterpart: the one write carrying record and payloads fails,
// so nothing at all is left in storage.
TEST(ParallelCommitTest, FailedInlineRecordLeavesNoObject) {
  SimClock clock;
  PoisonedEngine storage(clock);
  storage.Poison(kCommitPrefix);
  AftNode node("n0", storage, clock);
  ASSERT_TRUE(node.Start().ok());

  auto txid = node.StartTransaction();
  ASSERT_TRUE(txid.ok());
  const std::vector<std::string> keys = {"k0", "k1", "k2"};
  for (const std::string& key : keys) {
    ASSERT_TRUE(node.Put(*txid, key, "payload-" + key).ok());
  }
  ASSERT_FALSE(node.CommitTransaction(*txid).ok());
  EXPECT_EQ(storage.attempted_poison_puts(), 1u);
  EXPECT_TRUE(storage.List(kCommitPrefix)->empty());
  EXPECT_TRUE(storage.List(kVersionPrefix)->empty());

  AftNode fresh("n1", storage, clock);
  ASSERT_TRUE(fresh.Start().ok());
  auto reader = fresh.StartTransaction();
  ASSERT_TRUE(reader.ok());
  for (const std::string& key : keys) {
    auto read = fresh.Get(*reader, key);
    ASSERT_TRUE(read.ok()) << key;
    EXPECT_FALSE(read->has_value()) << "partial commit visible at " << key;
  }
}

// Under a sustained transient-fault storm, every acknowledged commit is
// all-or-nothing readable and every failed commit is all-or-nothing
// invisible — the parallel flush never changes the §3.3 guarantee.
TEST(ParallelCommitTest, TransientFaultStormPreservesAtomicity) {
  SimClock clock;
  PerKeyEngine storage(clock);
  AftNode node("n0", storage, clock);
  ASSERT_TRUE(node.Start().ok());

  storage.InjectTransientFaults(0.3);
  std::vector<bool> acked(20, false);
  for (int t = 0; t < 20; ++t) {
    auto txid = node.StartTransaction();
    ASSERT_TRUE(txid.ok());
    bool ok = true;
    for (int k = 0; k < 4; ++k) {
      ok = ok && node.Put(*txid, "t" + std::to_string(t) + "k" + std::to_string(k),
                          std::to_string(t))
                     .ok();
    }
    acked[t] = ok && node.CommitTransaction(*txid).ok();
  }
  storage.InjectTransientFaults(0.0);

  // Audit from a fresh node: acked commits fully readable, failed ones
  // fully invisible.
  AftNode fresh("n1", storage, clock);
  ASSERT_TRUE(fresh.Start().ok());
  auto reader = fresh.StartTransaction();
  ASSERT_TRUE(reader.ok());
  for (int t = 0; t < 20; ++t) {
    for (int k = 0; k < 4; ++k) {
      auto read = fresh.Get(*reader, "t" + std::to_string(t) + "k" + std::to_string(k));
      ASSERT_TRUE(read.ok());
      EXPECT_EQ(read->has_value(), acked[t]) << "t" << t << "k" << k;
    }
  }
}

// ---- ReadSetFold -----------------------------------------------------------------

class ReadSetFoldTest : public ::testing::Test {
 protected:
  TxnId Commit(int64_t ts, std::vector<std::string> keys) {
    auto record = std::make_shared<const CommitRecord>(
        CommitRecord{TxnId(ts, Uuid::Random(rng_)), std::move(keys)});
    commits_.Add(record);
    index_.AddCommit(*record);
    return record->id;
  }

  ReadSetEntry EntryOf(const TxnId& id) { return ReadSetEntry{id, commits_.Lookup(id)}; }

  Rng rng_{42};
  KeyVersionIndex index_;
  CommitSetCache commits_;
  std::unordered_map<std::string, ReadSetEntry> read_set_;
};

// A batch chose k@T2 (before T3 landed); the batch's l must then come from
// T2 too, never l@T3 — T3 cowrote k, so l@T3 with k@T2 is a fractured batch.
TEST_F(ReadSetFoldTest, EarlierChoicesConstrainLaterKeysInBatch) {
  const TxnId t2 = Commit(20, {"k", "l"});
  const TxnId t3 = Commit(30, {"k", "l"});

  ReadSetFold fold(read_set_);
  EXPECT_EQ(SelectAtomicReadVersion("l", fold.get(), index_, commits_).version, t3);
  fold.Add("k", EntryOf(t2));
  const AtomicReadChoice choice = SelectAtomicReadVersion("l", fold.get(), index_, commits_);
  ASSERT_EQ(choice.kind, AtomicReadChoice::Kind::kVersion);
  EXPECT_EQ(choice.version, t2) << "fractured batch: l@T3 with k@T2";
}

// The CALLER's read set is never modified, and it is copied only once a
// choice is folded in: a one-key read copies nothing.
TEST_F(ReadSetFoldTest, CallerReadSetIsUntouched) {
  const TxnId t1 = Commit(10, {"k"});
  ReadSetFold fold(read_set_);
  EXPECT_EQ(&fold.get(), &read_set_);
  fold.Add("k", EntryOf(t1));
  EXPECT_NE(&fold.get(), &read_set_);
  EXPECT_TRUE(fold.get().contains("k"));
  EXPECT_TRUE(read_set_.empty());
}

// The §5.2.1 forced abort inside a batch: the batch's earlier choice sets a
// lower bound for a key whose every candidate version is gone (GC'd), so
// the key must report kNoValidVersion.
TEST_F(ReadSetFoldTest, GcedLowerBoundYieldsNoValidVersion) {
  const TxnId t2 = Commit(20, {"k", "l"});
  ReadSetFold fold(read_set_);
  fold.Add("l", EntryOf(t2));

  auto t2_record = commits_.Lookup(t2);
  index_.RemoveCommit(*t2_record);
  commits_.Remove(t2);

  EXPECT_EQ(SelectAtomicReadVersion("k", fold.get(), index_, commits_).kind,
            AtomicReadChoice::Kind::kNoValidVersion);
}

// ---- AftNode::MultiGet ------------------------------------------------------------

class MultiGetTest : public ::testing::Test {
 protected:
  MultiGetTest() : storage_(clock_, InstantDynamo()) {}

  std::unique_ptr<AftNode> MakeNode(const std::string& id, AftNodeOptions options = {}) {
    auto node = std::make_unique<AftNode>(id, storage_, clock_, options);
    EXPECT_TRUE(node->Start().ok());
    return node;
  }

  TxnId CommitSimple(AftNode& node, const std::vector<std::pair<std::string, std::string>>& kvs) {
    auto txid = node.StartTransaction();
    EXPECT_TRUE(txid.ok());
    for (const auto& [key, value] : kvs) {
      EXPECT_TRUE(node.Put(*txid, key, value).ok());
    }
    auto committed = node.CommitTransaction(*txid);
    EXPECT_TRUE(committed.ok());
    return committed.ok() ? *committed : TxnId();
  }

  SimClock clock_;
  SimDynamo storage_;
};

TEST_F(MultiGetTest, PositionalResultsAcrossAllReadKinds) {
  auto node = MakeNode("n0");
  CommitSimple(*node, {{"a", "1"}, {"b", "2"}});

  auto txid = node->StartTransaction();
  ASSERT_TRUE(txid.ok());
  ASSERT_TRUE(node->Put(*txid, "c", "3").ok());  // Buffered, uncommitted.

  const std::vector<std::string> keys = {"a", "c", "missing", "b"};
  auto reads = node->MultiGet(*txid, keys);
  ASSERT_TRUE(reads.ok());
  ASSERT_EQ(reads->size(), 4u);
  EXPECT_EQ((*reads)[0].value.value(), "1");
  // Read-your-writes: the buffered value, tagged as a write-buffer read.
  EXPECT_EQ((*reads)[1].value.value(), "3");
  EXPECT_EQ((*reads)[1].version, TxnId(0, *txid));
  // NULL version for the never-written key.
  EXPECT_FALSE((*reads)[2].value.has_value());
  EXPECT_EQ((*reads)[2].version, TxnId::Null());
  EXPECT_EQ((*reads)[3].value.value(), "2");
}

TEST_F(MultiGetTest, EmptyBatchIsANoOp) {
  auto node = MakeNode("n0");
  auto txid = node->StartTransaction();
  ASSERT_TRUE(txid.ok());
  auto reads = node->MultiGet(*txid, {});
  ASSERT_TRUE(reads.ok());
  EXPECT_TRUE(reads->empty());
}

TEST_F(MultiGetTest, BatchInstallsRepeatableReadSet) {
  auto node = MakeNode("n0");
  const TxnId first = CommitSimple(*node, {{"a", "old"}});

  auto txid = node->StartTransaction();
  ASSERT_TRUE(txid.ok());
  const std::vector<std::string> keys = {"a"};
  auto reads = node->MultiGet(*txid, keys);
  ASSERT_TRUE(reads.ok());
  ASSERT_EQ((*reads)[0].version, first);

  // A newer version lands mid-transaction; the installed read set keeps the
  // transaction on the version the batch read (Corollary 1.1).
  CommitSimple(*node, {{"a", "new"}});
  auto again = node->GetVersioned(*txid, "a");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->version, first);
  EXPECT_EQ(again->value.value(), "old");
}

TEST_F(MultiGetTest, BatchNeverReturnsFracturedReads) {
  auto node = MakeNode("n0");
  CommitSimple(*node, {{"k", "k1"}, {"l", "l1"}});  // T1
  CommitSimple(*node, {{"k", "k2"}, {"l", "l2"}});  // T2

  auto txid = node->StartTransaction();
  ASSERT_TRUE(txid.ok());
  const std::vector<std::string> keys = {"k", "l"};
  auto reads = node->MultiGet(*txid, keys);
  ASSERT_TRUE(reads.ok());
  // Both keys from the SAME transaction — k2/l1 would be a fractured read.
  EXPECT_EQ((*reads)[0].version, (*reads)[1].version);
  EXPECT_EQ((*reads)[0].value.value(), "k2");
  EXPECT_EQ((*reads)[1].value.value(), "l2");
}

TEST_F(MultiGetTest, CacheHitsSkipStorageEntirely) {
  auto node = MakeNode("n0");
  CommitSimple(*node, {{"a", "1"}, {"b", "2"}});

  // First batch populates the data cache.
  auto warm = node->StartTransaction();
  ASSERT_TRUE(warm.ok());
  const std::vector<std::string> keys = {"a", "b"};
  ASSERT_TRUE(node->MultiGet(*warm, keys).ok());
  ASSERT_TRUE(node->AbortTransaction(*warm).ok());

  const uint64_t gets_before = storage_.counters().gets.load();
  auto txid = node->StartTransaction();
  ASSERT_TRUE(txid.ok());
  auto reads = node->MultiGet(*txid, keys);
  ASSERT_TRUE(reads.ok());
  EXPECT_EQ((*reads)[0].value.value(), "1");
  EXPECT_EQ((*reads)[1].value.value(), "2");
  EXPECT_EQ(storage_.counters().gets.load(), gets_before);
}

// On an engine that does not fuse data with records (SimDynamo) the three
// payloads ride inside one record object; a batch reads each with a ranged
// GET of that object.
TEST_F(MultiGetTest, InlineRecordBatchReadsRangedSlices) {
  ASSERT_FALSE(storage_.CommitUnitsFuseDataWithRecord());
  AftNodeOptions options;
  options.data_cache_bytes = 0;  // Force ranged GETs on every read.
  auto node = MakeNode("n0", options);
  const TxnId id = CommitSimple(*node, {{"a", "alpha"}, {"b", "bravo"}, {"c", "charlie"}});
  ASSERT_TRUE(storage_.List(kVersionPrefix)->empty());
  ASSERT_EQ(storage_.List(kCommitPrefix)->size(), 1u);

  const uint64_t gets_before = storage_.counters().gets.load();
  const uint64_t bytes_before = storage_.counters().bytes_read.load();
  auto txid = node->StartTransaction();
  ASSERT_TRUE(txid.ok());
  const std::vector<std::string> keys = {"c", "a", "b"};
  auto reads = node->MultiGet(*txid, keys);
  ASSERT_TRUE(reads.ok());
  EXPECT_EQ((*reads)[0].value.value(), "charlie");
  EXPECT_EQ((*reads)[1].value.value(), "alpha");
  EXPECT_EQ((*reads)[2].value.value(), "bravo");
  for (const AftNode::VersionedRead& read : *reads) {
    EXPECT_EQ(read.version, id);
  }
  // One ranged GET per key, each transferring only its payload's bytes.
  EXPECT_EQ(storage_.counters().gets.load() - gets_before, 3u);
  EXPECT_EQ(storage_.counters().bytes_read.load() - bytes_before,
            std::string("charliealphabravo").size());
}

TEST_F(MultiGetTest, UnreadablePinnedVersionAbortsBatch) {
  AftNodeOptions options;
  options.spill_threshold_bytes = 0;  // Every Put spills: version objects.
  options.data_cache_bytes = 0;
  options.storage_read_retries = 0;
  options.storage_read_backoff = Duration::zero();
  auto node = MakeNode("n0", options);
  const TxnId id = CommitSimple(*node, {{"k", "v"}, {"m", "w"}});

  // Delete one version's data behind the node's back (a GC race, §5.2.1).
  ASSERT_TRUE(storage_.Delete(VersionStorageKey("k", id.uuid)).ok());

  auto txid = node->StartTransaction();
  ASSERT_TRUE(txid.ok());
  const std::vector<std::string> keys = {"m", "k"};
  auto reads = node->MultiGet(*txid, keys);
  ASSERT_FALSE(reads.ok());
  EXPECT_EQ(reads.status().code(), StatusCode::kAborted);
}

TEST_F(MultiGetTest, UnreadableInlineRecordAbortsBatch) {
  AftNodeOptions options;
  options.data_cache_bytes = 0;
  options.storage_read_retries = 0;
  options.storage_read_backoff = Duration::zero();
  auto node = MakeNode("n0", options);
  const TxnId id = CommitSimple(*node, {{"k", "v"}, {"m", "w"}});

  // The record object, and with it both payloads, is deleted behind the
  // node's back while its metadata is cached.
  ASSERT_TRUE(storage_.Delete(CommitStorageKey(id)).ok());

  auto txid = node->StartTransaction();
  ASSERT_TRUE(txid.ok());
  const std::vector<std::string> keys = {"m", "k"};
  auto reads = node->MultiGet(*txid, keys);
  ASSERT_FALSE(reads.ok());
  EXPECT_EQ(reads.status().code(), StatusCode::kAborted);
}

TEST_F(MultiGetTest, OperationsOnUnknownTransactionFail) {
  auto node = MakeNode("n0");
  Rng rng(7);
  const std::vector<std::string> keys = {"k"};
  EXPECT_EQ(node->MultiGet(Uuid::Random(rng), keys).status().code(),
            StatusCode::kFailedPrecondition);
}

// ---- Parallel maintenance (fault manager) -----------------------------------------

ClusterOptions ManualCluster(size_t nodes) {
  ClusterOptions options;
  options.num_nodes = nodes;
  options.start_background_threads = false;
  return options;
}

class ParallelMaintenanceTest : public ::testing::Test {
 protected:
  ParallelMaintenanceTest() : storage_(clock_, InstantDynamo()) {}

  TxnId CommitVia(AftNode& node, const std::string& key, const std::string& value) {
    auto txid = node.StartTransaction();
    EXPECT_TRUE(txid.ok());
    EXPECT_TRUE(node.Put(*txid, key, value).ok());
    auto committed = node.CommitTransaction(*txid);
    EXPECT_TRUE(committed.ok());
    return committed.ok() ? *committed : TxnId();
  }

  std::optional<std::string> ReadVia(AftNode& node, const std::string& key) {
    auto txid = node.StartTransaction();
    auto result = node.Get(*txid, key);
    EXPECT_TRUE(result.ok());
    (void)node.AbortTransaction(*txid);
    return result.ok() ? *result : std::nullopt;
  }

  SimClock clock_;
  SimDynamo storage_;
};

TEST_F(ParallelMaintenanceTest, LivenessScanFetchesCandidatesConcurrently) {
  ClusterOptions options = ManualCluster(2);
  options.fault_manager.maintenance_parallelism = 3;  // Smaller than the batch.
  ClusterDeployment cluster(storage_, clock_, options);
  ASSERT_TRUE(cluster.Start().ok());

  // Node 0 commits 12 transactions and never gossips (no bus round): the
  // fault manager must recover every one from the storage scan.
  for (int i = 0; i < 12; ++i) {
    CommitVia(*cluster.node(0), "mk" + std::to_string(i), std::to_string(i));
  }
  clock_.Advance(std::chrono::seconds(5));  // Clear the liveness grace.
  EXPECT_EQ(cluster.fault_manager().RunLivenessScanOnce(), 12u);
  EXPECT_EQ(cluster.fault_manager().stats().missed_commits_recovered.load(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(ReadVia(*cluster.node(1), "mk" + std::to_string(i)).value(), std::to_string(i));
  }
  // Idempotent, exactly as before parallelization.
  EXPECT_EQ(cluster.fault_manager().RunLivenessScanOnce(), 0u);
}

TEST_F(ParallelMaintenanceTest, LivenessScanWorksWithParallelismOne) {
  ClusterOptions options = ManualCluster(2);
  options.fault_manager.maintenance_parallelism = 1;  // Fully serial fetches.
  ClusterDeployment cluster(storage_, clock_, options);
  ASSERT_TRUE(cluster.Start().ok());
  for (int i = 0; i < 5; ++i) {
    CommitVia(*cluster.node(0), "sk" + std::to_string(i), "v");
  }
  clock_.Advance(std::chrono::seconds(5));
  EXPECT_EQ(cluster.fault_manager().RunLivenessScanOnce(), 5u);
}

TEST_F(ParallelMaintenanceTest, GlobalGcGroupsDeleteAndBookkeepCompletely) {
  ClusterOptions options = ManualCluster(2);
  options.fault_manager.maintenance_parallelism = 4;  // 10 victims -> 3 groups.
  ClusterDeployment cluster(storage_, clock_, options);
  ASSERT_TRUE(cluster.Start().ok());

  std::vector<TxnId> old_ids;
  for (int i = 0; i < 10; ++i) {
    const std::string key = "gk" + std::to_string(i);
    old_ids.push_back(CommitVia(*cluster.node(0), key, "old"));
    CommitVia(*cluster.node(0), key, "new");
  }
  cluster.bus().RunOnce();
  (void)cluster.node(0)->RunLocalGcOnce();
  (void)cluster.node(1)->RunLocalGcOnce();

  EXPECT_EQ(cluster.fault_manager().RunGlobalGcOnce(), 10u);
  cluster.fault_manager().Stop();  // Flush every deletion group.

  for (int i = 0; i < 10; ++i) {
    const std::string key = "gk" + std::to_string(i);
    // Every group deleted its records' data and commit record...
    EXPECT_TRUE(storage_.Get(CommitStorageKey(old_ids[i])).status().IsNotFound());
    EXPECT_TRUE(storage_.Get(VersionStorageKey(key, old_ids[i].uuid)).status().IsNotFound());
    // ...and completed its bookkeeping (tombstones acknowledged).
    EXPECT_FALSE(cluster.node(0)->HasLocallyDeleted(old_ids[i]));
    // The surviving versions read fine everywhere.
    EXPECT_EQ(ReadVia(*cluster.node(0), key).value(), "new");
    EXPECT_EQ(ReadVia(*cluster.node(1), key).value(), "new");
  }
  EXPECT_EQ(cluster.fault_manager().stats().txns_deleted.load(), 10u);
}

}  // namespace
}  // namespace aft
