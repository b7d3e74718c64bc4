// Tests for the AFT node: Table 1 API semantics, the write-ordering commit
// protocol, crash injection, bootstrap recovery, multicast merging and GC.

#include <gtest/gtest.h>

#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "src/core/aft_node.h"
#include "src/storage/sim_dynamo.h"
#include "src/storage/sim_engine_base.h"

namespace aft {
namespace {

SimDynamoOptions InstantDynamo() {
  SimDynamoOptions options;
  options.profile = EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero()};
  options.staleness = StalenessModel{};
  options.txn_call = LatencyModel::Zero();
  return options;
}

class AftNodeTest : public ::testing::Test {
 protected:
  AftNodeTest() : storage_(clock_, InstantDynamo()) {}

  std::unique_ptr<AftNode> MakeNode(const std::string& id, AftNodeOptions options = {}) {
    auto node = std::make_unique<AftNode>(id, storage_, clock_, options);
    EXPECT_TRUE(node->Start().ok());
    return node;
  }

  // Commits a transaction writing the given key/value pairs; returns its ID.
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

  std::optional<std::string> ReadOnce(AftNode& node, const std::string& key) {
    auto txid = node.StartTransaction();
    EXPECT_TRUE(txid.ok());
    auto result = node.Get(*txid, key);
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(node.AbortTransaction(*txid).ok());
    return result.ok() ? *result : std::nullopt;
  }

  SimClock clock_;
  SimDynamo storage_;
};

// ---- Basic API -------------------------------------------------------------------

TEST_F(AftNodeTest, ReadYourWrites) {
  auto node = MakeNode("n0");
  auto txid = node->StartTransaction();
  ASSERT_TRUE(txid.ok());
  ASSERT_TRUE(node->Put(*txid, "k", "v1").ok());
  auto read = node->Get(*txid, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->value(), "v1");
  // Overwrite within the transaction: the newer buffered value wins.
  ASSERT_TRUE(node->Put(*txid, "k", "v2").ok());
  EXPECT_EQ(node->Get(*txid, "k")->value(), "v2");
}

TEST_F(AftNodeTest, CommitMakesDataVisibleToLaterTransactions) {
  auto node = MakeNode("n0");
  CommitSimple(*node, {{"k", "hello"}});
  EXPECT_EQ(ReadOnce(*node, "k").value(), "hello");
}

TEST_F(AftNodeTest, UncommittedDataIsInvisible) {
  auto node = MakeNode("n0");
  auto txid = node->StartTransaction();
  ASSERT_TRUE(node->Put(*txid, "k", "secret").ok());
  // Another transaction must not see the buffered write.
  EXPECT_FALSE(ReadOnce(*node, "k").has_value());
}

TEST_F(AftNodeTest, AbortDiscardsUpdates) {
  auto node = MakeNode("n0");
  auto txid = node->StartTransaction();
  ASSERT_TRUE(node->Put(*txid, "k", "doomed").ok());
  ASSERT_TRUE(node->AbortTransaction(*txid).ok());
  EXPECT_FALSE(ReadOnce(*node, "k").has_value());
  // The transaction is gone: further ops fail.
  EXPECT_FALSE(node->Put(*txid, "k", "x").ok());
}

TEST_F(AftNodeTest, MissingKeyReadsNull) {
  auto node = MakeNode("n0");
  EXPECT_FALSE(ReadOnce(*node, "never-written").has_value());
}

TEST_F(AftNodeTest, InvalidKeysAreRejected) {
  auto node = MakeNode("n0");
  auto txid = node->StartTransaction();
  EXPECT_EQ(node->Put(*txid, "", "v").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(node->Put(*txid, "a/b", "v").code(), StatusCode::kInvalidArgument);
}

TEST_F(AftNodeTest, OpsOnUnknownTransactionFail) {
  auto node = MakeNode("n0");
  Rng rng(1);
  const Uuid bogus = Uuid::Random(rng);
  EXPECT_EQ(node->Put(bogus, "k", "v").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(node->Get(bogus, "k").status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(node->CommitTransaction(bogus).status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(AftNodeTest, CommitIsIdempotentForRetries) {
  auto node = MakeNode("n0");
  auto txid = node->StartTransaction();
  ASSERT_TRUE(node->Put(*txid, "k", "v").ok());
  auto first = node->CommitTransaction(*txid);
  ASSERT_TRUE(first.ok());
  // A client-side retry of the commit returns the SAME commit ID and does
  // not persist anything twice.
  const uint64_t puts_before = storage_.counters().api_calls.load();
  auto second = node->CommitTransaction(*txid);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(storage_.counters().api_calls.load(), puts_before);
}

TEST_F(AftNodeTest, CommitTimestampsIncreaseMonotonically) {
  auto node = MakeNode("n0");
  TxnId last;
  for (int i = 0; i < 10; ++i) {
    const TxnId id = CommitSimple(*node, {{"k", std::to_string(i)}});
    EXPECT_GT(id, last);
    last = id;
  }
}

TEST_F(AftNodeTest, RepeatableReadAcrossInterleavedCommit) {
  auto node = MakeNode("n0");
  CommitSimple(*node, {{"k", "old"}});
  auto txid = node->StartTransaction();
  ASSERT_TRUE(txid.ok());
  EXPECT_EQ(node->Get(*txid, "k")->value(), "old");
  // Another transaction commits a newer version mid-flight.
  CommitSimple(*node, {{"k", "new"}});
  EXPECT_EQ(node->Get(*txid, "k")->value(), "old") << "repeatable read violated";
  // But a FRESH transaction sees the new version.
  EXPECT_EQ(ReadOnce(*node, "k").value(), "new");
}

TEST_F(AftNodeTest, FracturedReadsArePrevented) {
  auto node = MakeNode("n0");
  CommitSimple(*node, {{"l", "l1"}});                    // T1: {l}
  CommitSimple(*node, {{"k", "k2"}, {"l", "l2"}});       // T2: {k, l}
  auto txid = node->StartTransaction();
  EXPECT_EQ(node->Get(*txid, "k")->value(), "k2");
  EXPECT_EQ(node->Get(*txid, "l")->value(), "l2") << "must not read l1 after k2";
}

// §3.6: an interactive reader that read l before a {k, l} commit cannot read
// that commit's k (it would fracture against l@v1) and no older k exists, so
// it reads NULL: staler than a pre-declared read set, but atomic.
TEST_F(AftNodeTest, InteractiveReaderOverlappingCommitReadsNull) {
  auto node = MakeNode("n0");
  CommitSimple(*node, {{"l", "v1"}});
  auto reader = node->StartTransaction();
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(node->Get(*reader, "l")->value(), "v1");
  CommitSimple(*node, {{"k", "v2"}, {"l", "v2"}});
  auto k = node->Get(*reader, "k");
  ASSERT_TRUE(k.ok());
  EXPECT_FALSE(k->has_value());
}

TEST_F(AftNodeTest, ReadOnlyTransactionCommits) {
  auto node = MakeNode("n0");
  CommitSimple(*node, {{"k", "v"}});
  auto txid = node->StartTransaction();
  EXPECT_TRUE(node->Get(*txid, "k").ok());
  EXPECT_TRUE(node->CommitTransaction(*txid).ok());
}

TEST_F(AftNodeTest, AdoptTransactionAllowsContinuation) {
  auto node = MakeNode("n0");
  auto txid = node->StartTransaction();
  ASSERT_TRUE(node->Put(*txid, "a", "1").ok());
  // A retried function re-adopts the same ID and continues.
  ASSERT_TRUE(node->AdoptTransaction(*txid).ok());
  ASSERT_TRUE(node->Put(*txid, "b", "2").ok());
  ASSERT_TRUE(node->CommitTransaction(*txid).ok());
  EXPECT_EQ(ReadOnce(*node, "a").value(), "1");
  EXPECT_EQ(ReadOnce(*node, "b").value(), "2");
}

// ---- Write-ordering protocol / crash injection --------------------------------------

// A spilled write buffer sends the data before the commit, so a data write
// lands before the record.
TEST_F(AftNodeTest, CrashAfterDataWriteLeavesNoVisibleState) {
  AftNodeOptions options;
  options.spill_threshold_bytes = 0;
  bool crash_armed = true;
  options.crash_hook = [&crash_armed](CrashPoint point) {
    return crash_armed && point == CrashPoint::kAfterDataWrite;
  };
  auto node = MakeNode("crashy", options);
  auto txid = node->StartTransaction();
  ASSERT_TRUE(node->Put(*txid, "k", "half-done").ok());
  EXPECT_TRUE(node->CommitTransaction(*txid).status().IsUnavailable());
  EXPECT_FALSE(node->alive());

  // The data version IS in storage (orphaned)...
  crash_armed = false;
  auto keys = storage_.List(kVersionPrefix);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 1u);
  // ...but no commit record exists, so a recovering node sees nothing.
  EXPECT_TRUE(storage_.List(kCommitPrefix)->empty());
  auto recovered = MakeNode("recovered");
  EXPECT_FALSE(ReadOnce(*recovered, "k").has_value());
}

// Unspilled, the payload rides inside the record object: a crash before the
// record write leaves no object at all.
TEST_F(AftNodeTest, CrashAfterDataWriteOfInlineRecordLeavesNoObject) {
  AftNodeOptions options;
  bool crash_armed = true;
  options.crash_hook = [&crash_armed](CrashPoint point) {
    return crash_armed && point == CrashPoint::kAfterDataWrite;
  };
  auto node = MakeNode("crashy", options);
  auto txid = node->StartTransaction();
  ASSERT_TRUE(node->Put(*txid, "k", "half-done").ok());
  EXPECT_TRUE(node->CommitTransaction(*txid).status().IsUnavailable());
  EXPECT_FALSE(node->alive());

  crash_armed = false;
  EXPECT_TRUE(storage_.List(kVersionPrefix)->empty());
  EXPECT_TRUE(storage_.List(kCommitPrefix)->empty());
  auto recovered = MakeNode("recovered");
  EXPECT_FALSE(ReadOnce(*recovered, "k").has_value());
}

TEST_F(AftNodeTest, CrashAfterCommitWriteIsDurable) {
  AftNodeOptions options;
  bool crash_armed = true;
  options.crash_hook = [&crash_armed](CrashPoint point) {
    return crash_armed && point == CrashPoint::kAfterCommitWrite;
  };
  auto node = MakeNode("crashy", options);
  auto txid = node->StartTransaction();
  ASSERT_TRUE(node->Put(*txid, "k", "durable").ok());
  // The node dies before acknowledging, but the commit record IS persisted:
  // the transaction is committed (§3.3.1 — the client's retry would find it).
  EXPECT_TRUE(node->CommitTransaction(*txid).status().IsUnavailable());

  crash_armed = false;
  auto recovered = MakeNode("recovered");
  EXPECT_EQ(ReadOnce(*recovered, "k").value(), "durable");
}

TEST_F(AftNodeTest, DeadNodeRefusesAllOperations) {
  auto node = MakeNode("n0");
  auto txid = node->StartTransaction();
  node->Kill();
  EXPECT_TRUE(node->Put(*txid, "k", "v").IsUnavailable());
  EXPECT_TRUE(node->StartTransaction().status().IsUnavailable());
  EXPECT_TRUE(node->CommitTransaction(*txid).status().IsUnavailable());
}

// ---- Bootstrap -------------------------------------------------------------------

TEST_F(AftNodeTest, BootstrapWarmsMetadataFromCommitSet) {
  auto node = MakeNode("n0");
  CommitSimple(*node, {{"a", "1"}, {"b", "2"}});
  CommitSimple(*node, {{"a", "3"}});

  // A brand-new node (fresh caches) bootstraps from storage and serves the
  // latest committed state.
  auto fresh = MakeNode("n1");
  EXPECT_EQ(ReadOnce(*fresh, "a").value(), "3");
  EXPECT_EQ(ReadOnce(*fresh, "b").value(), "2");
  EXPECT_EQ(fresh->CommitSetSize(), 2u);
}

TEST_F(AftNodeTest, BootstrapHonorsCommitLimit) {
  auto node = MakeNode("n0");
  for (int i = 0; i < 10; ++i) {
    CommitSimple(*node, {{"k" + std::to_string(i), "v"}});
  }
  AftNodeOptions options;
  options.bootstrap_commit_limit = 3;
  auto fresh = MakeNode("n1", options);
  // Only the newest 3 records were loaded.
  EXPECT_EQ(fresh->CommitSetSize(), 3u);
  EXPECT_EQ(ReadOnce(*fresh, "k9").value(), "v");
  EXPECT_FALSE(ReadOnce(*fresh, "k0").has_value());
}

// Forwards to another engine, except that a Get of `missing_` reads
// NotFound and a Get of `garbage_` reads bytes that are no commit record.
// Not a SimEngineBase, so a node's bootstrap reads go through Get.
class FlakyReadEngine final : public StorageEngine {
 public:
  FlakyReadEngine(StorageEngine& inner, std::string missing, std::string garbage)
      : inner_(inner), missing_(std::move(missing)), garbage_(std::move(garbage)) {}

  Result<std::string> Get(const std::string& key) override {
    if (key == missing_) {
      return Status::NotFound(key);
    }
    if (key == garbage_) {
      return std::string("not a commit record");
    }
    return inner_.Get(key);
  }
  Status Put(std::string key, std::string value) override {
    return inner_.Put(std::move(key), std::move(value));
  }
  Status PutIfAbsent(std::string key, std::string value) override {
    return inner_.PutIfAbsent(std::move(key), std::move(value));
  }
  Status BatchPut(std::span<WriteOp> ops) override { return inner_.BatchPut(ops); }
  Status Delete(const std::string& key) override { return inner_.Delete(key); }
  Status BatchDelete(std::span<const std::string> keys) override {
    return inner_.BatchDelete(keys);
  }
  Result<std::vector<std::string>> List(const std::string& prefix) override {
    return inner_.List(prefix);
  }
  std::string_view name() const override { return "flaky-read"; }
  size_t MaxBatchSize() const override { return 1; }
  const StorageCounters& counters() const override { return inner_.counters(); }

 private:
  StorageEngine& inner_;
  const std::string missing_;
  const std::string garbage_;
};

// Bootstrap reads its records through the liveness scan's chunked parallel
// fetch: over more than three fetch chunks, it installs every readable
// record among the newest `bootstrap_commit_limit` listed ones, skips the
// missing and the corrupt one, and knows nothing older.
TEST_F(AftNodeTest, BootstrapSkipsMissingAndCorruptRecordsAcrossFetchChunks) {
  AftNodeOptions options;
  options.service_cores = 0;
  auto node = MakeNode("n0", options);
  for (int i = 0; i < 150; ++i) {
    CommitSimple(*node, {{"k" + std::to_string(i), "v"}});
  }
  auto listed = storage_.List(kCommitPrefix);
  ASSERT_TRUE(listed.ok());
  const std::vector<std::string>& keys = listed.value();
  ASSERT_EQ(keys.size(), 150u);
  constexpr size_t kLimit = 120;
  const size_t first = keys.size() - kLimit;
  const std::string& missing = keys[first + 7];
  const std::string& garbage = keys[first + 90];
  FlakyReadEngine flaky(storage_, missing, garbage);

  options.bootstrap_commit_limit = kLimit;
  AftNode fresh("n1", flaky, clock_, options);
  ASSERT_TRUE(fresh.Start().ok());
  EXPECT_EQ(fresh.CommitSetSize(), kLimit - 2);
  for (size_t i = 0; i < keys.size(); ++i) {
    const bool installed = i >= first && keys[i] != missing && keys[i] != garbage;
    EXPECT_EQ(fresh.KnowsCommit(TxnIdFromCommitStorageKey(keys[i])), installed) << keys[i];
  }
  EXPECT_EQ(ReadOnce(fresh, "k149").value(), "v");
  EXPECT_FALSE(ReadOnce(fresh, "k0").has_value());
}

// ---- Multicast hooks ----------------------------------------------------------------

TEST_F(AftNodeTest, RemoteCommitsBecomeVisible) {
  auto n0 = MakeNode("n0");
  auto n1 = MakeNode("n1");
  CommitSimple(*n0, {{"k", "from-n0"}});

  std::vector<CommitRecordPtr> pruned;
  std::vector<CommitRecordPtr> unpruned;
  n0->DrainRecentCommits(&pruned, &unpruned);
  ASSERT_EQ(unpruned.size(), 1u);
  ASSERT_EQ(pruned.size(), 1u);

  EXPECT_FALSE(ReadOnce(*n1, "k").has_value());  // Not yet known to n1.
  n1->ApplyRemoteCommits(pruned);
  EXPECT_EQ(ReadOnce(*n1, "k").value(), "from-n0");
}

TEST_F(AftNodeTest, DrainPrunesSupersededCommits) {
  auto node = MakeNode("n0");
  CommitSimple(*node, {{"k", "old"}});
  CommitSimple(*node, {{"k", "new"}});
  std::vector<CommitRecordPtr> pruned;
  std::vector<CommitRecordPtr> unpruned;
  node->DrainRecentCommits(&pruned, &unpruned);
  EXPECT_EQ(unpruned.size(), 2u);
  ASSERT_EQ(pruned.size(), 1u) << "the superseded first commit must be pruned";
  EXPECT_EQ(pruned[0]->write_set, std::vector<std::string>{"k"});
}

TEST_F(AftNodeTest, SupersededRemoteCommitsAreNotMerged) {
  auto n0 = MakeNode("n0");
  auto n1 = MakeNode("n1");
  // n1 already has a NEWER version of k.
  const TxnId newer = CommitSimple(*n1, {{"k", "new"}});
  // An older remote record arrives late.
  Rng rng(3);
  auto stale = std::make_shared<const CommitRecord>(
      CommitRecord{TxnId(newer.timestamp - 1000, Uuid::Random(rng)), {"k"}});
  n1->ApplyRemoteCommits({stale});
  EXPECT_EQ(n1->stats().remote_commits_skipped_superseded.load(), 1u);
  EXPECT_FALSE(n1->CommitSetSize() > 2u);
}

TEST_F(AftNodeTest, DrainIsEmptyAfterDrain) {
  auto node = MakeNode("n0");
  CommitSimple(*node, {{"k", "v"}});
  std::vector<CommitRecordPtr> unpruned;
  node->DrainRecentCommits(nullptr, &unpruned);
  EXPECT_EQ(unpruned.size(), 1u);
  unpruned.clear();
  node->DrainRecentCommits(nullptr, &unpruned);
  EXPECT_TRUE(unpruned.empty());
}

// ---- Local GC -------------------------------------------------------------------

TEST_F(AftNodeTest, LocalGcRemovesSupersededMetadata) {
  auto node = MakeNode("n0");
  const TxnId old_id = CommitSimple(*node, {{"k", "old"}});
  CommitSimple(*node, {{"k", "new"}});
  // Drain the broadcast queue first (GC will not touch pending records).
  node->DrainRecentCommits(nullptr, nullptr);
  const size_t before = node->CommitSetSize();
  const size_t removed = node->RunLocalGcOnce();
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(node->CommitSetSize(), before - 1);
  EXPECT_TRUE(node->HasLocallyDeleted(old_id));
  // The survivor still serves reads.
  EXPECT_EQ(ReadOnce(*node, "k").value(), "new");
}

TEST_F(AftNodeTest, LocalGcSparesPendingBroadcast) {
  auto node = MakeNode("n0");
  CommitSimple(*node, {{"k", "old"}});
  CommitSimple(*node, {{"k", "new"}});
  // Nothing drained yet: both records are pending broadcast.
  EXPECT_EQ(node->RunLocalGcOnce(), 0u);
}

TEST_F(AftNodeTest, LocalGcSparesRecordsReadByRunningTxns) {
  auto node = MakeNode("n0");
  CommitSimple(*node, {{"k", "old"}});
  // A running transaction reads the old version...
  auto reader = node->StartTransaction();
  ASSERT_TRUE(node->Get(*reader, "k").ok());
  // ...then a newer version supersedes it.
  CommitSimple(*node, {{"k", "new"}});
  node->DrainRecentCommits(nullptr, nullptr);
  EXPECT_EQ(node->RunLocalGcOnce(), 0u) << "record pinned by a running reader";
  // Once the reader finishes, GC may proceed.
  ASSERT_TRUE(node->AbortTransaction(*reader).ok());
  EXPECT_EQ(node->RunLocalGcOnce(), 1u);
}

TEST_F(AftNodeTest, GcPreservesRepeatableReadsViaPinnedRecords) {
  auto node = MakeNode("n0");
  CommitSimple(*node, {{"k", "old"}});
  auto reader = node->StartTransaction();
  EXPECT_EQ(node->Get(*reader, "k")->value(), "old");
  CommitSimple(*node, {{"k", "new"}});
  node->DrainRecentCommits(nullptr, nullptr);
  (void)node->RunLocalGcOnce();
  // Even if GC ran, the reader's pinned metadata keeps its view consistent.
  auto again = node->Get(*reader, "k");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->value(), "old");
}

// ---- Timeouts ----------------------------------------------------------------------

TEST_F(AftNodeTest, StaleTransactionsAreSweptAfterTimeout) {
  AftNodeOptions options;
  options.txn_timeout = Millis(100);
  auto node = MakeNode("n0", options);
  auto txid = node->StartTransaction();
  ASSERT_TRUE(node->Put(*txid, "k", "v").ok());
  clock_.Advance(Millis(200));
  EXPECT_EQ(node->SweepTimedOutTransactions(), 1u);
  EXPECT_FALSE(node->Put(*txid, "k", "v2").ok());
  EXPECT_FALSE(ReadOnce(*node, "k").has_value());
}

// ---- Write buffer spill ---------------------------------------------------------------

TEST_F(AftNodeTest, SaturatedBufferSpillsInvisibly) {
  AftNodeOptions options;
  options.spill_threshold_bytes = 64;  // Tiny: force spills.
  auto node = MakeNode("n0", options);
  auto txid = node->StartTransaction();
  ASSERT_TRUE(node->Put(*txid, "big1", std::string(100, 'x')).ok());
  ASSERT_TRUE(node->Put(*txid, "big2", std::string(100, 'y')).ok());
  EXPECT_GE(node->stats().spills.load(), 1u);
  // Spilled data sits in storage but is invisible (no commit record).
  EXPECT_FALSE(ReadOnce(*node, "big1").has_value());
  // Read-your-writes still works on spilled keys.
  EXPECT_EQ(node->Get(*txid, "big1")->value(), std::string(100, 'x'));
  // Commit makes everything visible.
  ASSERT_TRUE(node->CommitTransaction(*txid).ok());
  EXPECT_EQ(ReadOnce(*node, "big1").value(), std::string(100, 'x'));
  EXPECT_EQ(ReadOnce(*node, "big2").value(), std::string(100, 'y'));
}

TEST_F(AftNodeTest, AbortCleansUpSpilledData) {
  AftNodeOptions options;
  options.spill_threshold_bytes = 64;
  auto node = MakeNode("n0", options);
  auto txid = node->StartTransaction();
  ASSERT_TRUE(node->Put(*txid, "big", std::string(100, 'x')).ok());
  ASSERT_TRUE(node->AbortTransaction(*txid).ok());
  auto versions = storage_.List(kVersionPrefix);
  ASSERT_TRUE(versions.ok());
  EXPECT_TRUE(versions->empty()) << "spilled orphans must be deleted on abort";
}

TEST_F(AftNodeTest, RewriteAfterSpillCommitsLatestValue) {
  // Every read of an overwritten item is stale and nothing is cached, so a
  // commit that overwrote the spilled version object would read back the
  // spilled payload.
  SimDynamoOptions stale = InstantDynamo();
  stale.staleness = StalenessModel{1.0, Millis(80)};
  SimDynamo storage(clock_, stale);
  AftNodeOptions options;
  options.spill_threshold_bytes = 64;
  options.data_cache_bytes = 0;
  AftNode node("n0", storage, clock_, options);
  ASSERT_TRUE(node.Start().ok());
  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "k", std::string(100, 'a')).ok());  // Spills.
  ASSERT_TRUE(node.Put(*txid, "k", "final").ok());                // Dirty again.
  ASSERT_TRUE(node.CommitTransaction(*txid).ok());
  EXPECT_EQ(ReadOnce(node, "k").value(), "final");
}

// ---- Data cache ------------------------------------------------------------------------

TEST_F(AftNodeTest, DataCacheServesRepeatedReads) {
  auto node = MakeNode("n0");
  CommitSimple(*node, {{"k", "cached"}});
  const uint64_t gets_before = storage_.counters().gets.load();
  // The commit itself warmed the cache; reads should not touch storage.
  EXPECT_EQ(ReadOnce(*node, "k").value(), "cached");
  EXPECT_EQ(ReadOnce(*node, "k").value(), "cached");
  EXPECT_EQ(storage_.counters().gets.load(), gets_before);
  EXPECT_GT(node->data_cache().hits(), 0u);
}

TEST_F(AftNodeTest, CachingDisabledFallsBackToStorage) {
  AftNodeOptions options;
  options.data_cache_bytes = 0;
  auto node = MakeNode("n0", options);
  CommitSimple(*node, {{"k", "uncached"}});
  const uint64_t gets_before = storage_.counters().gets.load();
  EXPECT_EQ(ReadOnce(*node, "k").value(), "uncached");
  EXPECT_GT(storage_.counters().gets.load(), gets_before);
}

// Zero-latency engine whose next ranged GET, once armed, blocks until
// released, so a test can commit while a read's fetch is in flight.
class GatedReadEngine final : public SimEngineBase {
 public:
  explicit GatedReadEngine(Clock& clock)
      : SimEngineBase("gated-read", clock, InstantDynamo().profile, StalenessModel{}, 16) {}
  size_t MaxBatchSize() const override { return 1; }

  Result<std::string> GetRange(const std::string& key, uint64_t offset,
                               uint64_t length) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (armed_) {
      armed_ = false;
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    lock.unlock();
    return SimEngineBase::GetRange(key, offset, length);
  }

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool entered_ = false;
  bool released_ = false;
};

// The node's two read entry points, which share one read loop: Get, and
// MultiGet of one key.
enum class ReadEntry { kGet, kMultiGet };

class FetchRaceTest : public ::testing::TestWithParam<ReadEntry> {
 protected:
  FetchRaceTest() : storage_(clock_), node_("n0", storage_, clock_, Uncached()) {
    EXPECT_TRUE(node_.Start().ok());
  }

  static AftNodeOptions Uncached() {
    AftNodeOptions options;
    options.data_cache_bytes = 0;
    return options;
  }

  void Commit(const std::vector<std::pair<std::string, std::string>>& kvs) {
    auto txid = node_.StartTransaction();
    ASSERT_TRUE(txid.ok());
    for (const auto& [key, value] : kvs) {
      ASSERT_TRUE(node_.Put(*txid, key, value).ok());
    }
    ASSERT_TRUE(node_.CommitTransaction(*txid).ok());
  }

  // Reads "k" in `reader` on another thread through the entry point under
  // test, runs `meanwhile` while that read's fetch of the version it chose
  // is held, and returns what it read.
  std::optional<std::string> ReadKAcross(const Uuid& reader,
                                         const std::function<void()>& meanwhile) {
    storage_.Arm();
    std::optional<std::string> read;
    std::thread fetch([&] {
      if (GetParam() == ReadEntry::kMultiGet) {
        const std::vector<std::string> keys = {"k"};
        auto values = node_.MultiGet(reader, keys);
        EXPECT_TRUE(values.ok()) << values.status().ToString();
        read = values.ok() ? (*values)[0].value : std::nullopt;
        return;
      }
      auto value = node_.Get(reader, "k");
      EXPECT_TRUE(value.ok()) << value.status().ToString();
      read = value.ok() ? *value : std::nullopt;
    });
    storage_.AwaitEntered();
    meanwhile();
    storage_.Release();
    fetch.join();
    return read;
  }

  SimClock clock_;
  GatedReadEngine storage_;
  AftNode node_;
};

// A commit landing while a read's fetch is in flight leaves the fetched
// version valid: the read keeps it rather than chasing the newer one.
TEST_P(FetchRaceTest, CommitDuringFetchKeepsTheFetchedVersion) {
  Commit({{"k", "old"}});
  auto reader = node_.StartTransaction();
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(ReadKAcross(*reader, [&] { Commit({{"k", "new"}}); }),
            std::optional<std::string>("old"));
  EXPECT_EQ(node_.stats().read_refetches.load(), 0u);
}

// An overlapping read of the same transaction that tightens the read set
// past the fetched version (it read "m" from a transaction that cowrote a
// newer "k") makes the read fetch again, and the refetch is counted once.
TEST_P(FetchRaceTest, ReadSetTightenedDuringFetchRefetches) {
  Commit({{"k", "old"}});
  auto reader = node_.StartTransaction();
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(ReadKAcross(*reader,
                        [&] {
                          Commit({{"k", "new"}, {"m", "new"}});
                          EXPECT_EQ(node_.Get(*reader, "m").value(),
                                    std::optional<std::string>("new"));
                        }),
            std::optional<std::string>("new"));
  EXPECT_EQ(node_.stats().read_refetches.load(), 1u);
}

// The transaction's own Put of the key while the fetch is held wins: the
// read returns the buffered value (read-your-writes) and fetches nothing
// again.
TEST_P(FetchRaceTest, PutDuringFetchReturnsTheBufferedValue) {
  Commit({{"k", "old"}});
  auto reader = node_.StartTransaction();
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(ReadKAcross(*reader, [&] { ASSERT_TRUE(node_.Put(*reader, "k", "mine").ok()); }),
            std::optional<std::string>("mine"));
  EXPECT_EQ(node_.stats().read_refetches.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Entry, FetchRaceTest,
                         ::testing::Values(ReadEntry::kGet, ReadEntry::kMultiGet),
                         [](const ::testing::TestParamInfo<ReadEntry>& info) {
                           return info.param == ReadEntry::kGet ? "Get" : "MultiGet";
                         });

}  // namespace
}  // namespace aft
