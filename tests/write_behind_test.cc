// Tests for the Atomic Write Buffer's early writes (§3.3): write-behind
// where the engine's commit rounds share no cost, the held-back data path
// where they do, the no-overwrite rule for version objects (mixed records),
// failure poisoning, and the node's shutdown drain.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/deployment.h"
#include "src/core/aft_node.h"
#include "src/storage/local_engine.h"
#include "src/storage/sim_dynamo.h"
#include "src/storage/sim_engine_base.h"
#include "src/storage/sim_s3.h"
#include "tests/await_storage.h"

namespace aft {
namespace {

EngineLatencyProfile ZeroProfile() {
  return EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(), LatencyModel::Zero(),
                              LatencyModel::Zero(), LatencyModel::Zero(), LatencyModel::Zero()};
}

SimS3Options InstantS3(StalenessModel staleness = {}) {
  SimS3Options options;
  options.profile = ZeroProfile();
  options.staleness = staleness;
  return options;
}

SimDynamoOptions InstantDynamo() {
  SimDynamoOptions options;
  options.profile = ZeroProfile();
  options.staleness = StalenessModel{};
  options.txn_call = LatencyModel::Zero();
  return options;
}

AftNodeOptions NodeOptions() {
  AftNodeOptions options;
  options.service_cores = 0;
  return options;
}

std::optional<std::string> ReadOnce(AftNode& node, const std::string& key) {
  auto txid = node.StartTransaction();
  EXPECT_TRUE(txid.ok());
  auto value = node.Get(*txid, key);
  EXPECT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_TRUE(node.AbortTransaction(*txid).ok());
  return value.ok() ? *value : std::nullopt;
}

// Polls until `counter` reaches `target` or 5 s pass; returns the last value.
uint64_t AwaitCounter(const std::atomic<uint64_t>& counter, uint64_t target) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (counter.load() < target && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return counter.load();
}

// Storage keys under `prefix` written by transaction `writer`.
size_t ObjectsOf(StorageEngine& storage, const std::string& prefix, const Uuid& writer) {
  size_t n = 0;
  const auto keys = storage.List(prefix);
  for (const std::string& key : *keys) {
    if (key.find(writer.ToString()) != std::string::npos) {
      ++n;
    }
  }
  return n;
}

ClusterOptions OneNodeCluster() {
  ClusterOptions options;
  options.num_nodes = 1;
  options.start_background_threads = false;
  options.node_options = NodeOptions();
  return options;
}

// Commits a newer version of each of `keys` through the cluster's node, then
// runs the local and global GC once, which must collect one record.
void SupersedeAndCollect(ClusterDeployment& cluster, std::initializer_list<std::string> keys) {
  AftNode& node = *cluster.node(0);
  auto txid = node.StartTransaction();
  ASSERT_TRUE(txid.ok());
  for (const std::string& key : keys) {
    ASSERT_TRUE(node.Put(*txid, key, key + "-newer").ok());
  }
  ASSERT_TRUE(node.CommitTransaction(*txid).ok());
  cluster.bus().RunOnce();
  (void)node.RunLocalGcOnce();
  EXPECT_EQ(cluster.fault_manager().RunGlobalGcOnce(), 1u);
  cluster.fault_manager().Stop();
}

// No object of the transaction `id` — version, segment or record — remains.
void ExpectCollected(StorageEngine& storage, const TxnId& id) {
  EXPECT_EQ(ObjectsOf(storage, kVersionPrefix, id.uuid), 0u);
  EXPECT_EQ(ObjectsOf(storage, kSegmentPrefix, id.uuid), 0u);
  EXPECT_FALSE(storage.Get(CommitStorageKey(id)).ok());
}

// Zero-latency engine without a batch API whose PUTs of keys under any of
// `failing_prefixes` fail; a failing PUT of a version object answers only
// after `version_fail_delay`. Set both while no write is in flight.
class FailingPutEngine final : public SimEngineBase {
 public:
  explicit FailingPutEngine(Clock& clock)
      : SimEngineBase("failing-put", clock, ZeroProfile(), StalenessModel{}, 16) {}
  bool SupportsBatchPut() const override { return false; }
  size_t MaxBatchSize() const override { return 1; }
  Status Put(std::string key, std::string value) override {
    for (const std::string& prefix : failing_prefixes) {
      if (key.starts_with(prefix)) {
        if (key.starts_with(kVersionPrefix)) {
          std::this_thread::sleep_for(version_fail_delay);
        }
        return Status::Unavailable("injected put failure");
      }
    }
    return SimEngineBase::Put(std::move(key), std::move(value));
  }

  std::vector<std::string> failing_prefixes;
  std::chrono::milliseconds version_fail_delay{0};
};

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/aft_wb_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    path_ = dir == nullptr ? "" : dir;
  }
  ~TempDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---- The no-overwrite rule ------------------------------------------------------

// A key written early and then rewritten in the same transaction must not be
// PUT again to its version object: every read of an overwritten S3 object is
// stale here, so readers would get the early payload.
TEST(WriteBehindTest, RewrittenEarlyWriteIsNeverReadStale) {
  SimClock clock;
  SimS3 storage(clock, InstantS3(StalenessModel{1.0, Millis(80)}));
  AftNodeOptions options = NodeOptions();
  options.data_cache_bytes = 0;
  options.spill_threshold_bytes = 64;  // The first value goes out early everywhere.
  AftNode node("n0", storage, clock, options);
  ASSERT_TRUE(node.Start().ok());

  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "k", std::string(100, 'e')).ok());
  ASSERT_EQ(AwaitObjectCount(storage, kVersionPrefix, 1), 1u);
  ASSERT_TRUE(node.Put(*txid, "k", "final").ok());
  ASSERT_TRUE(node.CommitTransaction(*txid).ok());

  int stale = 0;
  for (int i = 0; i < 200; ++i) {
    if (ReadOnce(node, "k") != std::optional<std::string>("final")) {
      ++stale;
    }
  }
  EXPECT_EQ(stale, 0) << "reads of a committed key returned another payload";
}

// ---- Write-behind policy ----------------------------------------------------------

TEST(WriteBehindTest, PutStartsTheVersionWriteWhereRoundsShareNoCost) {
  SimClock clock;
  SimS3 storage(clock, InstantS3());
  ASSERT_FALSE(storage.CommitRoundsShareCost());
  AftNode node("n0", storage, clock, NodeOptions());
  ASSERT_TRUE(node.Start().ok());

  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "a", "1").ok());
  // The version PUT goes out before CommitTransaction is called.
  EXPECT_EQ(AwaitCounter(storage.counters().puts, 1), 1u);
  EXPECT_EQ(node.stats().spills.load(), 1u);
  ASSERT_TRUE(node.CommitTransaction(*txid).ok());
  // The commit round adds only the record.
  EXPECT_EQ(storage.counters().puts.load(), 2u);
  EXPECT_EQ(ReadOnce(node, "a").value(), "1");
}

TEST(WriteBehindTest, BoundedPoolHoldsDataForTheMergedRound) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  storage.SetMaxConcurrentRequests(4);
  AftNode node("n0", storage, clock, NodeOptions());
  ASSERT_TRUE(node.Start().ok());

  const uint64_t calls_before = storage.counters().api_calls.load();
  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "a", "1").ok());
  ASSERT_TRUE(node.Put(*txid, "b", "2").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(storage.counters().api_calls.load(), calls_before) << "Put made a storage call";
  EXPECT_EQ(node.stats().spills.load(), 0u);
  ASSERT_TRUE(node.CommitTransaction(*txid).ok());
  // One batched data call and one record write.
  EXPECT_EQ(storage.counters().batch_puts.load(), 1u);
  EXPECT_EQ(storage.counters().api_calls.load(), calls_before + 2);
}

TEST(WriteBehindTest, LocalEngineKeepsOneFsyncPerCommit) {
  TempDir dir;
  SimClock clock;
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());
  LocalEngine& storage = **engine;
  AftNode node("n0", storage, clock, NodeOptions());
  ASSERT_TRUE(node.Start().ok());

  const uint64_t calls_before = storage.counters().api_calls.load();
  const uint64_t fsyncs_before = storage.wal_stats().fsyncs;
  constexpr int kTxns = 5;
  for (int i = 0; i < kTxns; ++i) {
    auto txid = node.StartTransaction();
    ASSERT_TRUE(node.Put(*txid, "a", "v" + std::to_string(i)).ok());
    ASSERT_TRUE(node.Put(*txid, "b", "w" + std::to_string(i)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(storage.counters().api_calls.load(), calls_before + i) << "Put made a storage call";
    ASSERT_TRUE(node.CommitTransaction(*txid).ok());
  }
  EXPECT_EQ(storage.wal_stats().fsyncs - fsyncs_before, static_cast<uint64_t>(kTxns));
  EXPECT_EQ(node.stats().spills.load(), 0u);
}

// ---- Mixed records ------------------------------------------------------------------

TEST(WriteBehindTest, MixedRecordReadsBackAndIsCollectedWhole) {
  SimClock clock;
  SimS3 storage(clock, InstantS3());
  ClusterDeployment cluster(storage, clock, OneNodeCluster());
  ASSERT_TRUE(cluster.Start().ok());
  AftNode& node = *cluster.node(0);

  auto first = node.StartTransaction();
  ASSERT_TRUE(node.Put(*first, "a", "a1").ok());
  ASSERT_TRUE(node.Put(*first, "k", "k-early").ok());
  ASSERT_TRUE(node.Put(*first, "k", "k1").ok());  // Rewritten after its early write.
  auto first_id = node.CommitTransaction(*first);
  ASSERT_TRUE(first_id.ok());

  // One record: "a" in its version object, "k" in a segment with a locator.
  auto bytes = storage.Get(CommitStorageKey(*first_id));
  ASSERT_TRUE(bytes.ok());
  auto record = CommitRecord::Deserialize(*bytes);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->write_set.size(), 2u);
  EXPECT_EQ(record->segment_count, 1u);
  ASSERT_EQ(record->locators.size(), 1u);
  EXPECT_EQ(record->locators[0].key, "k");
  EXPECT_EQ(ObjectsOf(storage, kSegmentPrefix, *first), 1u);

  // An uncached node reads both layouts back.
  AftNodeOptions uncached = NodeOptions();
  uncached.data_cache_bytes = 0;
  AftNode reader("reader", storage, clock, uncached);
  ASSERT_TRUE(reader.Start().ok());
  EXPECT_EQ(ReadOnce(reader, "a").value(), "a1");
  EXPECT_EQ(ReadOnce(reader, "k").value(), "k1");

  // Supersede it, then collect it: none of its objects may remain.
  SupersedeAndCollect(cluster, {"a", "k"});
  ExpectCollected(storage, *first_id);
  EXPECT_EQ(ReadOnce(node, "k").value(), "k-newer");
}

// A record that locates every key it wrote — its only key was rewritten
// after the early write — still has that key's early version object, which
// the global GC must delete with the record.
TEST(WriteBehindTest, FullyLocatedRecordIsCollectedWhole) {
  SimClock clock;
  SimS3 storage(clock, InstantS3());
  ClusterDeployment cluster(storage, clock, OneNodeCluster());
  ASSERT_TRUE(cluster.Start().ok());
  AftNode& node = *cluster.node(0);

  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "k", "k-early").ok());
  ASSERT_EQ(AwaitObjectCount(storage, kVersionPrefix, 1), 1u);
  ASSERT_TRUE(node.Put(*txid, "k", "k1").ok());
  auto commit_id = node.CommitTransaction(*txid);
  ASSERT_TRUE(commit_id.ok());
  auto record = CommitRecord::Deserialize(*storage.Get(CommitStorageKey(*commit_id)));
  ASSERT_TRUE(record.ok());
  ASSERT_EQ(record->locators.size(), record->write_set.size());

  SupersedeAndCollect(cluster, {"k"});
  ExpectCollected(storage, *commit_id);
}

// Where data waits for the commit round, a round whose record write fails
// may still land its version objects; the retry then commits every key
// through a segment. The GC must delete the failed round's objects too.
TEST(WriteBehindTest, RetriedCommitIsCollectedWhole) {
  SimClock clock;
  FailingPutEngine storage(clock);
  storage.SetMaxConcurrentRequests(4);  // Rounds share a cost: no write-behind.
  ClusterDeployment cluster(storage, clock, OneNodeCluster());
  ASSERT_TRUE(cluster.Start().ok());
  AftNode& node = *cluster.node(0);

  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "a", "a1").ok());
  ASSERT_TRUE(node.Put(*txid, "b", "b1").ok());
  storage.failing_prefixes = {kCommitPrefix};
  EXPECT_FALSE(node.CommitTransaction(*txid).ok());
  EXPECT_EQ(ObjectsOf(storage, kVersionPrefix, *txid), 2u) << "the failed round's data landed";
  storage.failing_prefixes.clear();
  auto commit_id = node.CommitTransaction(*txid);
  ASSERT_TRUE(commit_id.ok());
  EXPECT_EQ(ReadOnce(node, "a").value(), "a1");

  SupersedeAndCollect(cluster, {"a", "b"});
  ExpectCollected(storage, *commit_id);
}

TEST(WriteBehindTest, AbortDeletesEarlyVersionsAndSegments) {
  SimClock clock;
  SimS3 storage(clock, InstantS3());
  AftNode node("n0", storage, clock, NodeOptions());
  ASSERT_TRUE(node.Start().ok());
  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "a", "1").ok());
  ASSERT_TRUE(node.Put(*txid, "b", "2").ok());
  ASSERT_TRUE(node.AbortTransaction(*txid).ok());
  // Abort waited for both writes before deleting what they wrote.
  EXPECT_TRUE(storage.List(kVersionPrefix)->empty());
  EXPECT_TRUE(storage.List(kSegmentPrefix)->empty());
}

// ---- Failure and lifetime -------------------------------------------------------------

TEST(WriteBehindTest, FailedEarlyWriteWithholdsTheRecordUntilRetry) {
  SimClock clock;
  SimS3 storage(clock, InstantS3());
  AftNode node("n0", storage, clock, NodeOptions());
  ASSERT_TRUE(node.Start().ok());

  auto txid = node.StartTransaction();
  storage.InjectTransientFaults(1.0);
  ASSERT_TRUE(node.Put(*txid, "k", "v").ok());
  ASSERT_EQ(AwaitCounter(storage.counters().transient_faults, 1), 1u);
  storage.InjectTransientFaults(0.0);

  // The failed early write poisons the commit: the record is never written.
  EXPECT_FALSE(node.CommitTransaction(*txid).ok());
  EXPECT_TRUE(storage.List(kCommitPrefix)->empty());
  // The key is dirty again; the retry persists it and commits.
  ASSERT_TRUE(node.CommitTransaction(*txid).ok());
  EXPECT_EQ(storage.List(kCommitPrefix)->size(), 1u);
  AftNodeOptions uncached = NodeOptions();
  uncached.data_cache_bytes = 0;
  AftNode reader("reader", storage, clock, uncached);
  ASSERT_TRUE(reader.Start().ok());
  EXPECT_EQ(ReadOnce(reader, "k").value(), "v");
}

// A round whose own data write fails never reaches its barrier, yet the
// failed keys it reports must include an early write that fails later:
// otherwise that key is not dirty for the retry, which fails once more.
TEST(WriteBehindTest, FailedRoundWaitsForEarlyWritesStillInFlight) {
  SimClock clock;
  FailingPutEngine storage(clock);
  AftNode node("n0", storage, clock, NodeOptions());
  ASSERT_TRUE(node.Start().ok());

  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "k", "k-early").ok());
  ASSERT_EQ(AwaitObjectCount(storage, kVersionPrefix, 1), 1u);
  storage.failing_prefixes = {kSegmentPrefix, kVersionPrefix};
  storage.version_fail_delay = std::chrono::milliseconds(30);
  ASSERT_TRUE(node.Put(*txid, "k", "k1").ok());  // Commits through a segment.
  ASSERT_TRUE(node.Put(*txid, "a", "a1").ok());  // Early write fails after 30 ms.
  // The segment write fails at once.
  EXPECT_FALSE(node.CommitTransaction(*txid).ok());
  storage.failing_prefixes.clear();

  ASSERT_TRUE(node.CommitTransaction(*txid).ok());
  AftNodeOptions uncached = NodeOptions();
  uncached.data_cache_bytes = 0;
  AftNode reader("reader", storage, clock, uncached);
  ASSERT_TRUE(reader.Start().ok());
  EXPECT_EQ(ReadOnce(reader, "a").value(), "a1");
  EXPECT_EQ(ReadOnce(reader, "k").value(), "k1");
}

TEST(WriteBehindTest, DestroyingANodeDrainsItsEarlyWrites) {
  RealClock clock(1.0);
  SimS3Options slow = InstantS3();
  slow.profile.put = LatencyModel(30.0, 0.0);
  auto storage = std::make_unique<SimS3>(clock, slow);
  Uuid txid;
  {
    AftNode node("n0", *storage, clock, NodeOptions());
    ASSERT_TRUE(node.Start().ok());
    auto started = node.StartTransaction();
    ASSERT_TRUE(started.ok());
    txid = *started;
    ASSERT_TRUE(node.Put(txid, "k", "v").ok());
    // Destroyed with the 30 ms PUT in flight.
  }
  // The write landed before the node finished destructing; the engine can
  // go now.
  EXPECT_TRUE(storage->PeekLatest(VersionStorageKey("k", txid)).has_value());
  storage.reset();
}

}  // namespace
}  // namespace aft
