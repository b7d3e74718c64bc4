// Cross-transaction commit batching (src/core/commit_batcher.h) and the
// CommitUnits storage contract (src/storage/storage_engine.h).
//
// The load-bearing guarantees under test:
//   * Per-unit §3.3 ordering — no member's commit record is visible (even
//     after a LocalEngine reopen/replay) unless that member's data is
//     durable.
//   * Per-unit poisoning — one member's failed write aborts that member
//     alone; its commit record is never written, its batch-mates commit and
//     stay readable.
//   * Fusion — a multi-unit round on the local engine rides ONE batched API
//     call and ONE group-committed fsync.
//   * The default CommitUnits — each unit in turn: its data write, its
//     hook, then its record, so one unit's failure spares the others.
//   * Policy — rounds merge only where the engine fuses a unit's data with
//     its record (StorageEngine::CommitUnitsFuseDataWithRecord): concurrent
//     committers over S3 never queue, while the local engine fuses.
//   * Equivalence — commits through a merging and a non-merging engine
//     leave the same committed state, including after crash-recovery
//     replay; a failed round leaves the transaction retryable; a crash
//     between data and record leaves no record, even on the local engine.
// The TSan stress at the bottom drives concurrent committers through the
// batcher under fault injection (run under -DAFT_SANITIZE=thread in CI).

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/aft_node.h"
#include "src/core/records.h"
#include "src/obs/metrics.h"
#include "src/storage/local_engine.h"
#include "src/storage/sim_dynamo.h"
#include "src/storage/sim_s3.h"

namespace aft {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/aft_cbatch_XXXXXX";
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

std::map<std::string, std::string> Snapshot(StorageEngine& engine) {
  std::map<std::string, std::string> out;
  auto keys = engine.List("");
  EXPECT_TRUE(keys.ok());
  for (const std::string& key : *keys) {
    auto value = engine.Get(key);
    EXPECT_TRUE(value.ok()) << key;
    if (value.ok()) {
      out[key] = *value;
    }
  }
  return out;
}


// Zero-latency engine profile: these tests exercise ordering and contention,
// not simulated round-trip times.
SimDynamoOptions InstantDynamoOptions() {
  SimDynamoOptions options;
  options.profile = EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero()};
  options.staleness = StalenessModel{};
  options.txn_call = LatencyModel::Zero();
  return options;
}

// Builds one commit unit over caller-owned backing vectors.
struct UnitFixture {
  std::vector<WriteOp> data;
  WriteOp record;
  CommitUnit unit() { return CommitUnit{std::span<WriteOp>(data), record, nullptr}; }
};

UnitFixture MakeUnit(const std::string& tag, int data_ops) {
  UnitFixture f;
  for (int i = 0; i < data_ops; ++i) {
    f.data.push_back(
        WriteOp{"data/" + tag + "/" + std::to_string(i), "payload-" + tag + std::to_string(i)});
  }
  f.record = WriteOp{"commit/" + tag, "record-" + tag};
  return f;
}

AftNodeOptions FastNodeOptions() {
  AftNodeOptions options;
  options.service_cores = 0;  // No service-time throttling in tests.
  return options;
}

obs::Histogram* BatchSizes(const std::string& node_id) {
  return obs::MetricsRegistry::Global().GetHistogram(
      "aft_commit_batch_size", "Transactions fused per commit round",
      ExponentialBoundaries(1, 2, 8), {{"node", node_id}});
}

// Starts `writers` transactions of one key each, then commits them all at
// once from `writers` threads, `rounds` times over. Returns the wall time of
// the commit phase in ms.
double CommitConcurrently(AftNode& node, int writers, int rounds) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      for (int r = 0; r < rounds; ++r) {
        auto txid = node.StartTransaction();
        ASSERT_TRUE(txid.ok());
        ASSERT_TRUE(node.Put(*txid, "w" + std::to_string(w), std::to_string(r)).ok());
        if (r == 0) {
          ready.fetch_add(1);
          while (!go.load()) {
            std::this_thread::yield();
          }
        }
        ASSERT_TRUE(node.CommitTransaction(*txid).ok());
      }
    });
  }
  while (ready.load() < writers) {
    std::this_thread::yield();
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true);
  for (std::thread& t : threads) {
    t.join();
  }
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// ---- storage-level contract -------------------------------------------------

TEST(CommitUnitsLocalEngine, MultiUnitRoundIsOneApiCallAndOneFsync) {
  TempDir dir;
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());

  UnitFixture a = MakeUnit("a", 2);
  UnitFixture b = MakeUnit("b", 3);
  UnitFixture c = MakeUnit("c", 1);
  std::vector<CommitUnit> units = {a.unit(), b.unit(), c.unit()};
  std::vector<Status> results(units.size());

  const Wal::Stats before = (*engine)->wal_stats();
  const uint64_t api_before = (*engine)->counters().api_calls.load();
  (*engine)->CommitUnits(units, results);
  const Wal::Stats after = (*engine)->wal_stats();

  for (const Status& r : results) {
    EXPECT_TRUE(r.ok()) << r.ToString();
  }
  // The whole round: one batched API call, one WAL append batch, one fsync.
  EXPECT_EQ((*engine)->counters().api_calls.load() - api_before, 1u);
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.fsyncs - before.fsyncs, 1u);
  // 6 data records + 3 commit records.
  EXPECT_EQ(after.records - before.records, 9u);

  for (const std::string& tag : {"a", "b", "c"}) {
    auto record = (*engine)->Get("commit/" + tag);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(*record, "record-" + tag);
  }
  auto payload = (*engine)->Get("data/b/2");
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, "payload-b2");
}

TEST(CommitUnitsLocalEngine, PoisonedUnitAbortsAloneAndSurvivesReplay) {
  TempDir dir;
  std::map<std::string, std::string> committed_view;
  {
    auto engine = LocalEngine::Open(dir.path());
    ASSERT_TRUE(engine.ok());
    // Fail unit b's SECOND data op: its first op is already accepted (the
    // engine's batches are not atomic), but its commit record must be
    // withheld.
    (*engine)->SetWriteFailureInjector([](std::string_view key) {
      if (key == "data/b/1") {
        return Status::Unavailable("injected write failure");
      }
      return Status::Ok();
    });

    UnitFixture a = MakeUnit("a", 2);
    UnitFixture b = MakeUnit("b", 3);
    UnitFixture c = MakeUnit("c", 1);
    std::vector<CommitUnit> units = {a.unit(), b.unit(), c.unit()};
    std::vector<Status> results(units.size());
    (*engine)->CommitUnits(units, results);

    EXPECT_TRUE(results[0].ok());
    EXPECT_FALSE(results[1].ok());
    EXPECT_TRUE(results[2].ok());

    // Batch-mates committed and readable; b's record absent, its accepted
    // data ops are invisible orphans.
    EXPECT_TRUE((*engine)->Get("commit/a").ok());
    EXPECT_EQ((*engine)->Get("commit/b").status().code(), StatusCode::kNotFound);
    EXPECT_TRUE((*engine)->Get("commit/c").ok());
    EXPECT_TRUE((*engine)->Get("data/b/0").ok());   // orphan (sweep's job)
    EXPECT_EQ((*engine)->Get("data/b/1").status().code(), StatusCode::kNotFound);
    committed_view = Snapshot(**engine);
  }
  // Reopen: WAL replay must reproduce the same state — in particular the
  // poisoned unit's record must STILL be absent.
  auto reopened = LocalEngine::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Snapshot(**reopened), committed_view);
  EXPECT_EQ((*reopened)->Get("commit/b").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE((*reopened)->Get("commit/a").ok());
  EXPECT_TRUE((*reopened)->Get("commit/c").ok());
}

TEST(CommitUnitsLocalEngine, FailedRecordWritePoisonsThatUnitOnly) {
  TempDir dir;
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());
  (*engine)->SetWriteFailureInjector([](std::string_view key) {
    if (key == "commit/b") {
      return Status::Unavailable("injected record failure");
    }
    return Status::Ok();
  });
  UnitFixture a = MakeUnit("a", 1);
  UnitFixture b = MakeUnit("b", 1);
  std::vector<CommitUnit> units = {a.unit(), b.unit()};
  std::vector<Status> results(units.size());
  (*engine)->CommitUnits(units, results);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE((*engine)->Get("commit/a").ok());
  EXPECT_EQ((*engine)->Get("commit/b").status().code(), StatusCode::kNotFound);
}

TEST(CommitUnitsDefaultImpl, RunsEachUnitsSequenceInTurn) {
  // SimDynamo has no CommitUnits override: the default runs unit a's data
  // write, hook and record, then unit b's. Each hook sees its own data
  // landed, its own record not yet written, and every earlier unit's record
  // already written.
  RealClock clock(0.002);
  SimDynamo engine(clock, InstantDynamoOptions());

  UnitFixture a = MakeUnit("a", 2);
  UnitFixture b = MakeUnit("b", 1);
  std::vector<CommitUnit> units = {a.unit(), b.unit()};
  std::vector<std::string> seen;
  units[0].after_data_write = [&] {
    seen.push_back("a");
    EXPECT_TRUE(engine.PeekLatest("data/a/1").has_value());
    EXPECT_FALSE(engine.PeekLatest("commit/a").has_value());
    EXPECT_FALSE(engine.PeekLatest("data/b/0").has_value());
    return Status::Ok();
  };
  units[1].after_data_write = [&] {
    seen.push_back("b");
    EXPECT_TRUE(engine.PeekLatest("data/b/0").has_value());
    EXPECT_TRUE(engine.PeekLatest("commit/a").has_value());
    EXPECT_FALSE(engine.PeekLatest("commit/b").has_value());
    return Status::Ok();
  };
  std::vector<Status> results(units.size());
  const uint64_t calls_before = engine.counters().api_calls.load();
  engine.CommitUnits(units, results);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(engine.PeekLatest("commit/a").value(), "record-a");
  EXPECT_EQ(engine.PeekLatest("commit/b").value(), "record-b");
  // Per unit: one batch call for its data, one create for its record.
  EXPECT_EQ(engine.counters().api_calls.load() - calls_before, 4u);

  // A failing hook poisons its unit alone: no record for c, d commits.
  UnitFixture c = MakeUnit("c", 1);
  UnitFixture d = MakeUnit("d", 1);
  std::vector<CommitUnit> units2 = {c.unit(), d.unit()};
  units2[0].after_data_write = [] { return Status::Unavailable("hook failed"); };
  std::vector<Status> results2(units2.size());
  engine.CommitUnits(units2, results2);
  EXPECT_TRUE(results2[0].IsUnavailable());
  EXPECT_TRUE(results2[1].ok());
  EXPECT_TRUE(engine.PeekLatest("data/c/0").has_value());  // orphan (sweep's job)
  EXPECT_FALSE(engine.PeekLatest("commit/c").has_value());
  EXPECT_TRUE(engine.PeekLatest("commit/d").has_value());

  // Total failure: every unit is poisoned and no record is written.
  engine.InjectTransientFaults(1.0);
  UnitFixture e = MakeUnit("e", 1);
  UnitFixture f = MakeUnit("f", 1);
  std::vector<CommitUnit> units3 = {e.unit(), f.unit()};
  std::vector<Status> results3(units3.size());
  engine.CommitUnits(units3, results3);
  EXPECT_FALSE(results3[0].ok());
  EXPECT_FALSE(results3[1].ok());
  EXPECT_FALSE(engine.PeekLatest("commit/e").has_value());
  EXPECT_FALSE(engine.PeekLatest("commit/f").has_value());
}

TEST(CommitUnitsDefaultImpl, FailedDataWritePoisonsOnlyItsUnit) {
  // A hook sends a LocalEngine round through the default CommitUnits (the
  // fused append has no point between a unit's data and its record). Only
  // unit a's data write fails: a gets no record, its mate b commits, and a
  // replay agrees.
  TempDir dir;
  {
    auto engine = LocalEngine::Open(dir.path());
    ASSERT_TRUE(engine.ok());
    (*engine)->SetWriteFailureInjector([](std::string_view key) {
      return key == "data/a/0" ? Status::Unavailable("injected write failure") : Status::Ok();
    });
    UnitFixture a = MakeUnit("a", 2);
    UnitFixture b = MakeUnit("b", 2);
    std::vector<CommitUnit> units = {a.unit(), b.unit()};
    int hooks_run = 0;
    for (CommitUnit& unit : units) {
      unit.after_data_write = [&hooks_run] {
        ++hooks_run;
        return Status::Ok();
      };
    }
    std::vector<Status> results(units.size());
    (*engine)->CommitUnits(units, results);
    EXPECT_TRUE(results[0].IsUnavailable());
    EXPECT_TRUE(results[1].ok());
    EXPECT_EQ(hooks_run, 1);  // A poisoned unit's hook never runs.
    EXPECT_TRUE((*engine)->Get("data/a/1").ok());  // orphan (sweep's job)
    EXPECT_EQ((*engine)->Get("commit/a").status().code(), StatusCode::kNotFound);
    EXPECT_EQ((*engine)->Get("commit/b").value(), "record-b");
  }
  auto reopened = LocalEngine::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Get("commit/a").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*reopened)->Get("commit/b").value(), "record-b");
  EXPECT_EQ((*reopened)->Get("data/b/1").value(), "payload-b1");
}

// ---- merge policy -----------------------------------------------------------

TEST(CommitBatcherPolicy, OnlyTheLocalEngineFusesDataWithRecords) {
  RealClock clock(0.002);
  SimS3 s3(clock);
  EXPECT_FALSE(s3.CommitUnitsFuseDataWithRecord());
  SimDynamo dynamo(clock, InstantDynamoOptions());
  EXPECT_FALSE(dynamo.CommitUnitsFuseDataWithRecord());

  TempDir dir;
  auto local = LocalEngine::Open(dir.path());
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE((*local)->CommitUnitsFuseDataWithRecord());
}

TEST(CommitBatcherPolicy, S3CommittersNeverQueue) {
  // On S3 a commit is one record PUT: a merged round would only make 8
  // committers wait for each other. Each runs its own round.
  RealClock clock(1.0);
  SimS3Options options;
  const LatencyModel put(50.0, 0.0);  // Deterministic, so wall times compare.
  options.profile = EngineLatencyProfile{LatencyModel::Zero(), put, LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero()};
  options.staleness = StalenessModel{};
  SimS3 engine(clock, options);
  const std::string id = "policy-s3";
  AftNode node(id, engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());

  const double solo_ms = CommitConcurrently(node, /*writers=*/1, /*rounds=*/1);
  const double concurrent_ms = CommitConcurrently(node, /*writers=*/8, /*rounds=*/1);

  obs::Histogram* sizes = BatchSizes(id);
  EXPECT_EQ(sizes->Count(), 9u);
  EXPECT_EQ(sizes->Sum(), 9.0) << "some round carried more than one commit";
  const CommitStageHistograms stages = CommitStageHistograms::ForNode(id);
  EXPECT_EQ(stages.queue_wait_follower->Count(), 0u);
  EXPECT_EQ(stages.queue_wait_leader->Sum(), 0.0);
  // Two 50 ms PUTs per commit. Merging would take at least two rounds here
  // (the first committer's, then everyone else's); serializing, eight.
  EXPECT_LT(concurrent_ms, 1.6 * solo_ms)
      << "8 concurrent commits took " << concurrent_ms << " ms, one took " << solo_ms << " ms";
}

TEST(CommitBatcherPolicy, LocalEngineWritersStillFuse) {
  TempDir dir;
  RealClock clock(0.002);
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());
  const std::string id = "policy-local";
  AftNode node(id, **engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());
  CommitConcurrently(node, /*writers=*/16, /*rounds=*/10);
  obs::Histogram* sizes = BatchSizes(id);
  ASSERT_GT(sizes->Count(), 0u);
  EXPECT_GT(sizes->Sum() / static_cast<double>(sizes->Count()), 1.0);
}

// ---- node-level contract ----------------------------------------------------

// Ten transactions over three keys plus one key every transaction writes.
void CommitEquivalenceWorkload(StorageEngine& engine, Clock& clock) {
  AftNode node("n0", engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());
  for (int t = 0; t < 10; ++t) {
    auto txid = node.StartTransaction();
    ASSERT_TRUE(txid.ok());
    ASSERT_TRUE(node.Put(*txid, "k" + std::to_string(t % 3), "v" + std::to_string(t)).ok());
    ASSERT_TRUE(node.Put(*txid, "shared", "round-" + std::to_string(t)).ok());
    ASSERT_TRUE(node.CommitTransaction(*txid).ok());
  }
}

// What a node bootstrapped from `engine` must read after the workload.
void CheckEquivalenceState(StorageEngine& engine, Clock& clock) {
  AftNode reader("reader", engine, clock, FastNodeOptions());
  ASSERT_TRUE(reader.Start().ok());
  auto txid = reader.StartTransaction();
  ASSERT_TRUE(txid.ok());
  auto shared = reader.Get(*txid, "shared");
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(shared->has_value());
  EXPECT_EQ(**shared, "round-9");
  auto k2 = reader.Get(*txid, "k2");
  ASSERT_TRUE(k2.ok());
  ASSERT_TRUE(k2->has_value());
  EXPECT_EQ(**k2, "v8");
}

TEST(CommitBatcherNode, BatchedCommitEquivalentToUnbatchedAfterReplay) {
  // The same workload through a merging engine (LocalEngine, recovered by
  // reopening its WAL) and a non-merging one (SimDynamo, recovered by a
  // fresh node's bootstrap) leaves the same committed state.
  RealClock clock(0.002);
  TempDir dir;
  {
    auto engine = LocalEngine::Open(dir.path());
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->CommitUnitsFuseDataWithRecord());
    CommitEquivalenceWorkload(**engine, clock);
  }
  auto reopened = LocalEngine::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  CheckEquivalenceState(**reopened, clock);

  SimDynamo dynamo(clock, InstantDynamoOptions());
  ASSERT_FALSE(dynamo.CommitUnitsFuseDataWithRecord());
  CommitEquivalenceWorkload(dynamo, clock);
  CheckEquivalenceState(dynamo, clock);
}

TEST(CommitBatcherNode, FailedRoundLeavesTransactionRetryable) {
  TempDir dir;
  RealClock clock(0.002);
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());
  AftNode node("n0", **engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());

  std::atomic<bool> fail{true};
  (*engine)->SetWriteFailureInjector([&fail](std::string_view key) {
    if (fail.load() && key.find("doomed") != std::string_view::npos) {
      return Status::Unavailable("injected");
    }
    return Status::Ok();
  });

  auto txid = node.StartTransaction();
  ASSERT_TRUE(txid.ok());
  ASSERT_TRUE(node.Put(*txid, "doomed", "v1").ok());
  EXPECT_FALSE(node.CommitTransaction(*txid).ok());
  // No commit record may exist for the failed attempt.
  auto commits = (*engine)->List(std::string(kCommitPrefix));
  ASSERT_TRUE(commits.ok());
  EXPECT_TRUE(commits->empty());

  // The transaction survives and a retry (fault cleared) commits it.
  fail.store(false);
  auto commit_id = node.CommitTransaction(*txid);
  ASSERT_TRUE(commit_id.ok());
  auto reader_txn = node.StartTransaction();
  ASSERT_TRUE(reader_txn.ok());
  auto read = node.Get(*reader_txn, "doomed");
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(read->has_value());
  EXPECT_EQ(**read, "v1");
}

TEST(CommitBatcherNode, CrashAfterDataWriteOnLocalEngineWritesNoRecord) {
  // The local engine fuses data and records into one WAL append; a round
  // carrying the kAfterDataWrite hook must still land the data alone.
  TempDir dir;
  RealClock clock(0.002);
  {
    auto engine = LocalEngine::Open(dir.path());
    ASSERT_TRUE(engine.ok());
    AftNodeOptions options = FastNodeOptions();
    options.crash_hook = [](CrashPoint point) { return point == CrashPoint::kAfterDataWrite; };
    AftNode node("crashy", **engine, clock, options);
    ASSERT_TRUE(node.Start().ok());
    auto txid = node.StartTransaction();
    ASSERT_TRUE(txid.ok());
    ASSERT_TRUE(node.Put(*txid, "k", "half-done").ok());
    EXPECT_TRUE(node.CommitTransaction(*txid).status().IsUnavailable());
    EXPECT_FALSE(node.alive());
  }
  auto reopened = LocalEngine::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->List(std::string(kVersionPrefix))->size(), 1u);
  EXPECT_TRUE((*reopened)->List(std::string(kCommitPrefix))->empty());
  AftNode reader("reader", **reopened, clock, FastNodeOptions());
  ASSERT_TRUE(reader.Start().ok());
  auto txid = reader.StartTransaction();
  ASSERT_TRUE(txid.ok());
  auto read = reader.Get(*txid, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->has_value());
}

TEST(CommitBatcherNode, PoisonedMemberDoesNotFailBatchMates) {
  // Concurrent committers where exactly one member's data write fails: the
  // poisoned transaction aborts with no commit record; every batch-mate
  // commits and its data survives a replay cycle.
  TempDir dir;
  RealClock clock(0.002);
  std::map<std::string, std::string> state_before_reopen;
  {
    auto engine = LocalEngine::Open(dir.path());
    ASSERT_TRUE(engine.ok());
    AftNode node("n0", **engine, clock, FastNodeOptions());
    ASSERT_TRUE(node.Start().ok());
    (*engine)->SetWriteFailureInjector([](std::string_view key) {
      if (key.find("poison") != std::string_view::npos) {
        return Status::Unavailable("injected");
      }
      return Status::Ok();
    });

    constexpr int kThreads = 8;
    std::atomic<int> committed{0};
    std::atomic<int> failed{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        auto txid = node.StartTransaction();
        ASSERT_TRUE(txid.ok());
        const std::string key = (i == 3) ? "poisoned-key" : ("ok-" + std::to_string(i));
        ASSERT_TRUE(node.Put(*txid, key, "value-" + std::to_string(i)).ok());
        auto result = node.CommitTransaction(*txid);
        if (result.ok()) {
          committed.fetch_add(1);
        } else {
          failed.fetch_add(1);
          ASSERT_TRUE(node.AbortTransaction(*txid).ok());
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    EXPECT_EQ(committed.load(), kThreads - 1);
    EXPECT_EQ(failed.load(), 1);

    auto commits = (*engine)->List(std::string(kCommitPrefix));
    ASSERT_TRUE(commits.ok());
    EXPECT_EQ(commits->size(), static_cast<size_t>(kThreads - 1));
    state_before_reopen = Snapshot(**engine);
  }
  // Replay equivalence: reopen and read the mates' values through a fresh
  // node; the poisoned transaction must not have resurfaced.
  auto reopened = LocalEngine::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Snapshot(**reopened), state_before_reopen);
  AftNode reader("reader", **reopened, clock, FastNodeOptions());
  ASSERT_TRUE(reader.Start().ok());
  auto txid = reader.StartTransaction();
  ASSERT_TRUE(txid.ok());
  for (int i = 0; i < 8; ++i) {
    if (i == 3) {
      auto read = reader.Get(*txid, "poisoned-key");
      ASSERT_TRUE(read.ok());
      EXPECT_FALSE(read->has_value());
    } else {
      auto read = reader.Get(*txid, "ok-" + std::to_string(i));
      ASSERT_TRUE(read.ok());
      ASSERT_TRUE(read->has_value()) << i;
      EXPECT_EQ(**read, "value-" + std::to_string(i));
    }
  }
}

// ---- concurrency stress (TSan leg) ------------------------------------------

// Parameter: the engine. SimDynamo never merges rounds, and its transient
// faults fail whole calls; LocalEngine merges them, and a seeded injector
// fails single write ops, so one member of a merged round is poisoned alone.
enum class StressEngine { kSimDynamo, kLocal };

class CommitBatcherStress : public ::testing::TestWithParam<StressEngine> {};

TEST_P(CommitBatcherStress, ConcurrentCommittersUnderTransientFaults) {
  // Many committers race through the batcher against an engine that fails
  // writes at random; every failure is retried until it lands. Exercises
  // solo / leader / follower paths, leadership handoff, and per-member
  // poisoning concurrently where rounds merge, and concurrent solo rounds
  // where they do not. Run under TSan in CI.
  RealClock clock(0.002);
  SimDynamo dynamo(clock, InstantDynamoOptions());
  // The n-th write op offered to the injector fails iff a SplitMix64 hash
  // of n lands in the lowest 5%, whichever thread offers it.
  std::atomic<uint64_t> offered{0};
  TempDir dir;
  std::unique_ptr<LocalEngine> local;
  if (GetParam() == StressEngine::kLocal) {
    auto opened = LocalEngine::Open(dir.path());
    ASSERT_TRUE(opened.ok());
    local = std::move(*opened);
  }
  StorageEngine& engine = local != nullptr ? static_cast<StorageEngine&>(*local) : dynamo;
  auto inject_faults = [&](bool on) {
    if (local == nullptr) {
      dynamo.InjectTransientFaults(on ? 0.05 : 0.0);
    } else if (!on) {
      local->SetWriteFailureInjector(nullptr);
    } else {
      local->SetWriteFailureInjector([&offered](std::string_view /*key*/) {
        uint64_t state = 0x5eed0000 + offered.fetch_add(1, std::memory_order_relaxed);
        return SplitMix64(state) % 100 < 5 ? Status::Unavailable("injected write failure")
                                           : Status::Ok();
      });
    }
  };
  inject_faults(true);

  const std::string id = local != nullptr ? "stress-local" : "stress-dynamo";
  AftNode node(id, engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> total_committed{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto txid = node.StartTransaction();
        ASSERT_TRUE(txid.ok());
        const std::string value = std::to_string(t) + ":" + std::to_string(i);
        ASSERT_TRUE(node.Put(*txid, "slot-" + std::to_string(t), value).ok());
        ASSERT_TRUE(node.Put(*txid, "hot", value).ok());
        // Retry through transient faults; commit must eventually land.
        Status committed = Status::Unavailable("not yet");
        for (int attempt = 0; attempt < 200 && !committed.ok(); ++attempt) {
          auto result = node.CommitTransaction(*txid);
          committed = result.ok() ? Status::Ok() : result.status();
        }
        ASSERT_TRUE(committed.ok()) << committed.ToString();
        total_committed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(total_committed.load(), kThreads * kTxnsPerThread);
  if (local != nullptr) {
    obs::Counter* followers = obs::MetricsRegistry::Global().GetCounter(
        "aft_commit_batch_commits_total", "Commits by batch role (follower piggybacked)",
        {{"node", id}, {"role", "follower"}});
    EXPECT_GT(followers->Value(), 0u) << "no round merged";
  }

  inject_faults(false);
  auto txid = node.StartTransaction();
  ASSERT_TRUE(txid.ok());
  for (int t = 0; t < kThreads; ++t) {
    auto read = node.Get(*txid, "slot-" + std::to_string(t));
    ASSERT_TRUE(read.ok());
    ASSERT_TRUE(read->has_value()) << t;
    // The thread's last committed write is its final value.
    EXPECT_EQ(**read, std::to_string(t) + ":" + std::to_string(kTxnsPerThread - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, CommitBatcherStress,
                         ::testing::Values(StressEngine::kSimDynamo, StressEngine::kLocal),
                         [](const ::testing::TestParamInfo<StressEngine>& param_info) {
                           return param_info.param == StressEngine::kLocal
                                      ? std::string("LocalEngine")
                                      : std::string("SimDynamo");
                         });

}  // namespace
}  // namespace aft
