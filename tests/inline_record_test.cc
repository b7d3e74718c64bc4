// Tests for commit records that carry their own payloads (§3.3 write
// ordering in one write): unless the engine fuses a commit's data ops with
// its record (the local engine's WAL append), a commit is ONE object, the
// record's fields followed by every dirty payload; on the local engine
// fresh keys still go out as version objects in the same append. On every
// engine a key whose version object may already exist (spilled, or sent by
// a failed round) rides in the record, so no version object is ever
// overwritten. Also: spill failure poisoning, abort, and the node's
// shutdown drain.

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

AftNodeOptions NodeOptions() {
  AftNodeOptions options;
  options.service_cores = 0;
  return options;
}

AftNodeOptions UncachedOptions() {
  AftNodeOptions options = NodeOptions();
  options.data_cache_bytes = 0;
  return options;
}

// A buffer past this many bytes spills: "k-early" and longer values do.
constexpr uint64_t kSmallSpillThreshold = 4;

AftNodeOptions SpillingOptions() {
  AftNodeOptions options = NodeOptions();
  options.spill_threshold_bytes = kSmallSpillThreshold;
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

size_t ObjectCount(StorageEngine& storage, const std::string& prefix) {
  return storage.List(prefix)->size();
}

CommitRecord StoredRecord(StorageEngine& storage, const TxnId& id) {
  auto bytes = storage.Get(CommitStorageKey(id));
  EXPECT_TRUE(bytes.ok());
  auto record = CommitRecord::Deserialize(bytes.ok() ? *bytes : std::string());
  EXPECT_TRUE(record.ok());
  return record.ok() ? *record : CommitRecord{};
}

ClusterOptions ManualCluster(size_t nodes) {
  ClusterOptions options;
  options.num_nodes = nodes;
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

// No object of the transaction `id` — version or record — remains.
void ExpectCollected(StorageEngine& storage, const TxnId& id) {
  EXPECT_EQ(ObjectsOf(storage, kVersionPrefix, id.uuid), 0u);
  EXPECT_FALSE(storage.Get(CommitStorageKey(id)).ok());
}

// `record` (stored as `id`) locates `key`'s payload, `payload`, inside its
// own object.
void ExpectInRecord(StorageEngine& storage, const TxnId& id, const CommitRecord& record,
                    const std::string& key, const std::string& payload) {
  const VersionLocator* locator = record.FindLocator(key);
  ASSERT_NE(locator, nullptr) << key;
  auto slice = storage.GetRange(CommitStorageKey(id), locator->offset, locator->length);
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  EXPECT_EQ(*slice, payload);
}

// Zero-latency engine without a batch API whose PUTs of keys under
// `failing_prefix` fail while it is set. Set it while no write is in flight.
class FailingPutEngine final : public SimEngineBase {
 public:
  explicit FailingPutEngine(Clock& clock)
      : SimEngineBase("failing-put", clock, ZeroProfile(), StalenessModel{}, 16) {}
  size_t MaxBatchSize() const override { return 1; }
  Status Put(std::string key, std::string value) override {
    if (Fails(key)) {
      return Status::Unavailable("injected put failure");
    }
    return SimEngineBase::Put(std::move(key), std::move(value));
  }
  Status PutIfAbsent(std::string key, std::string value) override {
    if (Fails(key)) {
      return Status::Unavailable("injected put failure");
    }
    return SimEngineBase::PutIfAbsent(std::move(key), std::move(value));
  }
  bool Fails(const std::string& key) const {
    return !failing_prefix.empty() && key.starts_with(failing_prefix);
  }

  std::string failing_prefix;
};

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/aft_inline_XXXXXX";
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

// ---- One PUT per commit ------------------------------------------------------------

TEST(InlineRecordTest, PutMakesNoStorageCallAndCommitIsOnePut) {
  SimClock clock;
  SimS3 storage(clock, InstantS3());
  ASSERT_FALSE(storage.CommitUnitsFuseDataWithRecord());
  AftNode node("n0", storage, clock, NodeOptions());
  ASSERT_TRUE(node.Start().ok());

  const uint64_t calls_before = storage.counters().api_calls.load();
  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "a", "alpha").ok());
  ASSERT_TRUE(node.Put(*txid, "b", "bravo").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(storage.counters().api_calls.load(), calls_before) << "Put made a storage call";
  auto commit_id = node.CommitTransaction(*txid);
  ASSERT_TRUE(commit_id.ok());
  EXPECT_EQ(storage.counters().api_calls.load(), calls_before + 1);
  EXPECT_EQ(storage.counters().puts.load(), 1u);
  EXPECT_EQ(node.stats().spills.load(), 0u);
  EXPECT_EQ(ObjectCount(storage, kVersionPrefix), 0u);

  // The stored object is the record's fields followed by the payloads, at
  // the absolute offsets its locators name.
  const CommitRecord record = StoredRecord(storage, *commit_id);
  ASSERT_EQ(record.locators.size(), 2u);
  ExpectInRecord(storage, *commit_id, record, "a", "alpha");
  ExpectInRecord(storage, *commit_id, record, "b", "bravo");
  EXPECT_EQ(record.FindLocator("c"), nullptr);
  // The record's wire form carries no payload.
  EXPECT_EQ(storage.PeekLatest(CommitStorageKey(*commit_id))->size(),
            record.Serialize().size() + std::string("alphabravo").size());
}

TEST(InlineRecordTest, PayloadReadsBackAfterGossipAndBootstrap) {
  SimClock clock;
  SimS3 storage(clock, InstantS3());
  ClusterOptions options = ManualCluster(2);
  options.node_options.data_cache_bytes = 0;
  ClusterDeployment cluster(storage, clock, options);
  ASSERT_TRUE(cluster.Start().ok());

  auto txid = cluster.node(0)->StartTransaction();
  ASSERT_TRUE(cluster.node(0)->Put(*txid, "k", "gossiped").ok());
  ASSERT_TRUE(cluster.node(0)->Put(*txid, "m", "too").ok());
  ASSERT_TRUE(cluster.node(0)->CommitTransaction(*txid).ok());

  // A peer learns the record's metadata from gossip and fetches the payload
  // with a ranged GET of the record object.
  cluster.bus().RunOnce();
  const uint64_t gets_before = storage.counters().gets.load();
  EXPECT_EQ(ReadOnce(*cluster.node(1), "k").value(), "gossiped");
  EXPECT_EQ(storage.counters().gets.load(), gets_before + 1);

  // A fresh node learns it from the commit set.
  AftNode fresh("fresh", storage, clock, UncachedOptions());
  ASSERT_TRUE(fresh.Start().ok());
  EXPECT_EQ(ReadOnce(fresh, "k").value(), "gossiped");
  EXPECT_EQ(ReadOnce(fresh, "m").value(), "too");
  cluster.fault_manager().Stop();
}

TEST(InlineRecordTest, SupersededRecordIsCollectedWhole) {
  SimClock clock;
  SimS3 storage(clock, InstantS3());
  ClusterDeployment cluster(storage, clock, ManualCluster(1));
  ASSERT_TRUE(cluster.Start().ok());
  AftNode& node = *cluster.node(0);

  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "a", "a1").ok());
  ASSERT_TRUE(node.Put(*txid, "k", "k1").ok());
  auto commit_id = node.CommitTransaction(*txid);
  ASSERT_TRUE(commit_id.ok());

  SupersedeAndCollect(cluster, {"a", "k"});
  ExpectCollected(storage, *commit_id);
  EXPECT_EQ(ObjectCount(storage, kVersionPrefix), 0u);
  EXPECT_EQ(ObjectCount(storage, kCommitPrefix), 1u);  // The superseding record.
  EXPECT_EQ(ReadOnce(node, "k").value(), "k-newer");
}

TEST(InlineRecordTest, CrashBeforeTheRecordLeavesNoObject) {
  SimClock clock;
  SimS3 storage(clock, InstantS3());
  AftNodeOptions options = NodeOptions();
  options.crash_hook = [](CrashPoint point) { return point == CrashPoint::kAfterDataWrite; };
  AftNode node("crashy", storage, clock, options);
  ASSERT_TRUE(node.Start().ok());

  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "k", "torn").ok());
  EXPECT_TRUE(node.CommitTransaction(*txid).status().IsUnavailable());
  EXPECT_FALSE(node.alive());
  EXPECT_EQ(storage.counters().puts.load(), 0u);
  EXPECT_EQ(ObjectCount(storage, kVersionPrefix), 0u);
  EXPECT_EQ(ObjectCount(storage, kCommitPrefix), 0u);

  AftNode recovered("recovered", storage, clock, UncachedOptions());
  ASSERT_TRUE(recovered.Start().ok());
  EXPECT_FALSE(ReadOnce(recovered, "k").has_value());
}

// A record PUT that fails leaves nothing behind; the retry is a new record
// object (a new timestamp) carrying the bytes buffered at the retry.
TEST(InlineRecordTest, FailedRecordPutThenRetryReadsTheRetrysBytes) {
  SimClock clock;
  FailingPutEngine storage(clock);
  AftNode node("n0", storage, clock, NodeOptions());
  ASSERT_TRUE(node.Start().ok());

  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "k", "first").ok());
  storage.failing_prefix = kCommitPrefix;
  EXPECT_FALSE(node.CommitTransaction(*txid).ok());
  storage.failing_prefix.clear();
  EXPECT_EQ(ObjectCount(storage, kCommitPrefix), 0u);
  EXPECT_EQ(ObjectCount(storage, kVersionPrefix), 0u);

  ASSERT_TRUE(node.Put(*txid, "k", "retried").ok());
  auto commit_id = node.CommitTransaction(*txid);
  ASSERT_TRUE(commit_id.ok());
  EXPECT_EQ(ObjectCount(storage, kCommitPrefix), 1u);
  EXPECT_EQ(ObjectCount(storage, kVersionPrefix), 0u);
  AftNode reader("reader", storage, clock, UncachedOptions());
  ASSERT_TRUE(reader.Start().ok());
  EXPECT_EQ(ReadOnce(reader, "k").value(), "retried");
}

// ---- The local engine ----------------------------------------------------------------

TEST(InlineRecordTest, LocalEngineKeepsOneFsyncPerCommit) {
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
  // Fresh keys keep their version objects on the engine fusing them with
  // the record.
  EXPECT_EQ(ObjectCount(storage, kVersionPrefix), static_cast<size_t>(2 * kTxns));
}

// A key spilled and then rewritten commits inside the record on every
// engine, beside a fresh key's version object, and survives a WAL reopen.
TEST(InlineRecordTest, LocalEngineRewriteAfterSpillCommitsInlineAndSurvivesReopen) {
  TempDir dir;
  SimClock clock;
  TxnId commit_id;
  Uuid txid;
  {
    auto engine = LocalEngine::Open(dir.path());
    ASSERT_TRUE(engine.ok());
    AftNode node("n0", **engine, clock, SpillingOptions());
    ASSERT_TRUE(node.Start().ok());
    auto started = node.StartTransaction();
    ASSERT_TRUE(started.ok());
    txid = *started;
    ASSERT_TRUE(node.Put(txid, "k", "k-early").ok());  // Spills.
    ASSERT_EQ(AwaitObjectCount(**engine, kVersionPrefix, 1), 1u);
    ASSERT_TRUE(node.Put(txid, "k", "k1").ok());  // Rewritten: waits for the record.
    ASSERT_TRUE(node.Put(txid, "a", "a1").ok());  // Fresh: a version object.
    auto committed = node.CommitTransaction(txid);
    ASSERT_TRUE(committed.ok());
    commit_id = *committed;
  }
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());
  const CommitRecord record = StoredRecord(**engine, commit_id);
  ASSERT_EQ(record.locators.size(), 1u);
  ExpectInRecord(**engine, commit_id, record, "k", "k1");
  EXPECT_EQ(ObjectsOf(**engine, kVersionPrefix, txid), 2u);  // "a" and k's spill.
  AftNode reader("reader", **engine, clock, UncachedOptions());
  ASSERT_TRUE(reader.Start().ok());
  EXPECT_EQ(ReadOnce(reader, "k").value(), "k1");
  EXPECT_EQ(ReadOnce(reader, "a").value(), "a1");
}

// ---- Spills and the no-overwrite rule ------------------------------------------------

// A key spilled and then rewritten in the same transaction must not be PUT
// again to its version object: every read of an overwritten S3 object is
// stale here, so readers would get the spilled payload.
TEST(InlineRecordTest, RewrittenSpillIsNeverReadStale) {
  SimClock clock;
  SimS3 storage(clock, InstantS3(StalenessModel{1.0, Millis(80)}));
  AftNodeOptions options = SpillingOptions();
  options.data_cache_bytes = 0;
  AftNode node("n0", storage, clock, options);
  ASSERT_TRUE(node.Start().ok());

  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "k", std::string(100, 'e')).ok());
  ASSERT_EQ(AwaitObjectCount(storage, kVersionPrefix, 1), 1u);
  ASSERT_TRUE(node.Put(*txid, "k", "fin").ok());
  ASSERT_TRUE(node.CommitTransaction(*txid).ok());

  int stale = 0;
  for (int i = 0; i < 200; ++i) {
    if (ReadOnce(node, "k") != std::optional<std::string>("fin")) {
      ++stale;
    }
  }
  EXPECT_EQ(stale, 0) << "reads of a committed key returned another payload";
}

// A record whose keys are a spilled version object and an in-record payload
// reads back, and the GC deletes both.
TEST(InlineRecordTest, SpilledAndInlineKeysReadBackAndAreCollectedWhole) {
  SimClock clock;
  SimS3 storage(clock, InstantS3());
  ClusterOptions options = ManualCluster(1);
  options.node_options.spill_threshold_bytes = kSmallSpillThreshold;
  ClusterDeployment cluster(storage, clock, options);
  ASSERT_TRUE(cluster.Start().ok());
  AftNode& node = *cluster.node(0);

  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "a", "a1").ok());
  ASSERT_TRUE(node.Put(*txid, "k", "k-early").ok());  // Spills "a" and "k".
  ASSERT_EQ(AwaitObjectCount(storage, kVersionPrefix, 2), 2u);
  ASSERT_TRUE(node.Put(*txid, "k", "k1").ok());  // Rewritten after its spill.
  auto commit_id = node.CommitTransaction(*txid);
  ASSERT_TRUE(commit_id.ok());

  const CommitRecord record = StoredRecord(storage, *commit_id);
  EXPECT_EQ(record.write_set.size(), 2u);
  ASSERT_EQ(record.locators.size(), 1u);
  ExpectInRecord(storage, *commit_id, record, "k", "k1");

  AftNode reader("reader", storage, clock, UncachedOptions());
  ASSERT_TRUE(reader.Start().ok());
  EXPECT_EQ(ReadOnce(reader, "a").value(), "a1");
  EXPECT_EQ(ReadOnce(reader, "k").value(), "k1");

  SupersedeAndCollect(cluster, {"a", "k"});
  ExpectCollected(storage, *commit_id);
  EXPECT_EQ(ReadOnce(node, "k").value(), "k-newer");
}

// A key spilled and then rewritten rides in its record, and a record that
// carries every payload shows no version object: the global delete sends
// the record's delete alone, and the orphan sweep reaps the spilled version
// once its grace has passed.
TEST(InlineRecordTest, RewrittenSpillIsReapedByTheOrphanSweep) {
  SimClock clock;
  SimS3 storage(clock, InstantS3());
  ClusterOptions options = ManualCluster(1);
  options.node_options.spill_threshold_bytes = kSmallSpillThreshold;
  options.fault_manager.orphan_grace = Millis(500);
  ClusterDeployment cluster(storage, clock, options);
  ASSERT_TRUE(cluster.Start().ok());
  AftNode& node = *cluster.node(0);

  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "k", "k-early").ok());  // Spills "k".
  ASSERT_EQ(AwaitObjectCount(storage, kVersionPrefix, 1), 1u);
  ASSERT_TRUE(node.Put(*txid, "k", "k1").ok());
  auto commit_id = node.CommitTransaction(*txid);
  ASSERT_TRUE(commit_id.ok());
  ASSERT_EQ(StoredRecord(storage, *commit_id).locators.size(), 1u);

  const uint64_t deletes_before = storage.counters().deletes.load();
  SupersedeAndCollect(cluster, {"k"});
  EXPECT_EQ(storage.counters().deletes.load() - deletes_before, 1u) << "the record alone";
  EXPECT_EQ(cluster.fault_manager().stats().versions_deleted.load(), 1u);
  EXPECT_FALSE(storage.Get(CommitStorageKey(*commit_id)).ok());
  EXPECT_EQ(ObjectsOf(storage, kVersionPrefix, commit_id->uuid), 1u);

  EXPECT_EQ(cluster.fault_manager().RunOrphanSweepOnce(), 0u);  // Grace starts.
  clock.Advance(Millis(600));
  EXPECT_EQ(cluster.fault_manager().RunOrphanSweepOnce(), 1u);
  ExpectCollected(storage, *commit_id);
  EXPECT_EQ(ReadOnce(node, "k").value(), "k-newer");
}

// On the local engine a round writes fresh keys' version objects in the
// record's append, so a round whose record write fails may still land
// them; the retry then carries every key in its record. The GC must delete
// the failed round's objects too.
TEST(InlineRecordTest, RetriedCommitIsCollectedWhole) {
  TempDir dir;
  SimClock clock;
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());
  LocalEngine& storage = **engine;
  ClusterDeployment cluster(storage, clock, ManualCluster(1));
  ASSERT_TRUE(cluster.Start().ok());
  AftNode& node = *cluster.node(0);

  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "a", "a1").ok());
  ASSERT_TRUE(node.Put(*txid, "b", "b1").ok());
  storage.SetWriteFailureInjector([](std::string_view key) {
    return key.starts_with(kCommitPrefix) ? Status::Unavailable("injected record failure")
                                          : Status::Ok();
  });
  EXPECT_FALSE(node.CommitTransaction(*txid).ok());
  EXPECT_EQ(ObjectsOf(storage, kVersionPrefix, *txid), 2u) << "the failed round's data landed";
  storage.SetWriteFailureInjector(nullptr);
  auto commit_id = node.CommitTransaction(*txid);
  ASSERT_TRUE(commit_id.ok());
  const CommitRecord record = StoredRecord(storage, *commit_id);
  ASSERT_EQ(record.locators.size(), 2u);
  ExpectInRecord(storage, *commit_id, record, "a", "a1");
  ExpectInRecord(storage, *commit_id, record, "b", "b1");
  AftNode reader("reader", storage, clock, UncachedOptions());
  ASSERT_TRUE(reader.Start().ok());
  EXPECT_EQ(ReadOnce(reader, "a").value(), "a1");

  SupersedeAndCollect(cluster, {"a", "b"});
  ExpectCollected(storage, *commit_id);
}

TEST(InlineRecordTest, AbortDeletesSpilledVersions) {
  SimClock clock;
  SimS3 storage(clock, InstantS3());
  AftNode node("n0", storage, clock, SpillingOptions());
  ASSERT_TRUE(node.Start().ok());
  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "a", "1").ok());
  ASSERT_TRUE(node.Put(*txid, "b", "2-spills").ok());
  ASSERT_TRUE(node.AbortTransaction(*txid).ok());
  // Abort waited for the spill before deleting what it wrote.
  EXPECT_EQ(ObjectCount(storage, kVersionPrefix), 0u);
  EXPECT_EQ(ObjectCount(storage, kCommitPrefix), 0u);
}

// ---- Failure and lifetime -------------------------------------------------------------

TEST(InlineRecordTest, FailedSpillWithholdsTheRecordUntilRetry) {
  SimClock clock;
  SimS3 storage(clock, InstantS3());
  AftNode node("n0", storage, clock, SpillingOptions());
  ASSERT_TRUE(node.Start().ok());

  auto txid = node.StartTransaction();
  storage.InjectTransientFaults(1.0);
  ASSERT_TRUE(node.Put(*txid, "k", "spilled").ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (storage.counters().transient_faults.load() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(storage.counters().transient_faults.load(), 1u);
  storage.InjectTransientFaults(0.0);

  // The failed spill poisons the commit: the record is never written.
  EXPECT_FALSE(node.CommitTransaction(*txid).ok());
  EXPECT_EQ(ObjectCount(storage, kCommitPrefix), 0u);
  // The key is dirty again; the retry carries it in the record.
  ASSERT_TRUE(node.CommitTransaction(*txid).ok());
  EXPECT_EQ(ObjectCount(storage, kCommitPrefix), 1u);
  AftNode reader("reader", storage, clock, UncachedOptions());
  ASSERT_TRUE(reader.Start().ok());
  EXPECT_EQ(ReadOnce(reader, "k").value(), "spilled");
}

// A round whose own data write fails never reaches its barrier, yet the
// failed keys it reports must include a spill that fails later: otherwise
// that key is not dirty for the retry, which fails once more. On the local
// engine a round has a data write of its own (a fresh key's version).
TEST(InlineRecordTest, FailedRoundWaitsForSpillsStillInFlight) {
  TempDir dir;
  SimClock clock;
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());
  LocalEngine& storage = **engine;
  AftNode node("n0", storage, clock, SpillingOptions());
  ASSERT_TRUE(node.Start().ok());

  auto txid = node.StartTransaction();
  ASSERT_TRUE(txid.ok());
  ASSERT_TRUE(node.Put(*txid, "k", "k-early").ok());  // Spills, and lands.
  ASSERT_EQ(AwaitObjectCount(storage, kVersionPrefix, 1), 1u);
  const std::string slow_spill = VersionStorageKey("a", *txid);
  const std::string round_op = VersionStorageKey("b", *txid);
  storage.SetWriteFailureInjector([slow_spill, round_op](std::string_view key) {
    if (key == slow_spill) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      return Status::Unavailable("injected slow spill failure");
    }
    return key == round_op ? Status::Unavailable("injected round failure") : Status::Ok();
  });
  ASSERT_TRUE(node.Put(*txid, "k", "k1").ok());      // Rewritten: waits for the record.
  ASSERT_TRUE(node.Put(*txid, "a", "a-slow").ok());  // Spills "a"; fails after 30 ms.
  ASSERT_TRUE(node.Put(*txid, "b", "b1").ok());      // Fresh: the round's version object.
  // The round's write of "b" fails at once.
  EXPECT_FALSE(node.CommitTransaction(*txid).ok());
  storage.SetWriteFailureInjector(nullptr);

  ASSERT_TRUE(node.CommitTransaction(*txid).ok());
  AftNode reader("reader", storage, clock, UncachedOptions());
  ASSERT_TRUE(reader.Start().ok());
  EXPECT_EQ(ReadOnce(reader, "a").value(), "a-slow");
  EXPECT_EQ(ReadOnce(reader, "b").value(), "b1");
  EXPECT_EQ(ReadOnce(reader, "k").value(), "k1");
}

TEST(InlineRecordTest, DestroyingANodeDrainsItsSpills) {
  RealClock clock(1.0);
  SimS3Options slow = InstantS3();
  slow.profile.put = LatencyModel(30.0, 0.0);
  auto storage = std::make_unique<SimS3>(clock, slow);
  Uuid txid;
  {
    AftNode node("n0", *storage, clock, SpillingOptions());
    ASSERT_TRUE(node.Start().ok());
    auto started = node.StartTransaction();
    ASSERT_TRUE(started.ok());
    txid = *started;
    ASSERT_TRUE(node.Put(txid, "k", "spilled").ok());
    // Destroyed with the 30 ms PUT in flight.
  }
  // The write landed before the node finished destructing; the engine can
  // go now.
  EXPECT_TRUE(storage->PeekLatest(VersionStorageKey("k", txid)).has_value());
  storage.reset();
}

}  // namespace
}  // namespace aft
