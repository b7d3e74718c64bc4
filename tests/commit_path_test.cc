// The commit path: the StorageEngine::Commit contract
// (src/storage/storage_engine.h) and AftNode's one storage round per commit.
//
// The load-bearing guarantees under test:
//   * §3.3 ordering — no commit record is visible (even after a LocalEngine
//     reopen/replay) unless that commit's data is durable.
//   * Failure isolation — a failed data or record write fails that commit
//     alone; its record is never written, and commits before, after and
//     beside it on other threads commit and stay readable.
//   * The default Commit — the paper's sequence: the data write, the hook,
//     then the record.
//   * Fusion — only the local engine rides a commit's data and record on
//     one write (StorageEngine::CommitUnitsFuseDataWithRecord), and
//     concurrent commits there replay to the same state as serial ones.
//   * A failed round leaves the transaction retryable; a crash between data
//     and record leaves no record, even on the local engine.
// The TSan stress at the bottom drives concurrent committers under fault
// injection (run under -DAFT_SANITIZE=thread in CI).

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/aft_node.h"
#include "src/core/records.h"
#include "src/storage/local_engine.h"
#include "src/storage/sim_dynamo.h"
#include "src/storage/sim_s3.h"

namespace aft {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/aft_cpath_XXXXXX";
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

// Threads of the concurrent commit-equivalence workload.
constexpr int kEquivalenceWriters = 8;

// ---- storage-level contract -------------------------------------------------

TEST(CommitLocalEngine, PoisonedUnitWritesNoRecordAndSurvivesReplay) {
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
    CommitUnit unit_a = a.unit();
    CommitUnit unit_b = b.unit();
    CommitUnit unit_c = c.unit();
    const Wal::Stats before = (*engine)->wal_stats();
    const uint64_t api_before = (*engine)->counters().api_calls.load();
    EXPECT_TRUE((*engine)->Commit(unit_a).ok());
    const Wal::Stats after = (*engine)->wal_stats();
    // A fused commit: one API call, one WAL append batch, one fsync, its 2
    // data records and its commit record.
    EXPECT_EQ((*engine)->counters().api_calls.load() - api_before, 1u);
    EXPECT_EQ(after.batches - before.batches, 1u);
    EXPECT_EQ(after.fsyncs - before.fsyncs, 1u);
    EXPECT_EQ(after.records - before.records, 3u);
    EXPECT_FALSE((*engine)->Commit(unit_b).ok());
    EXPECT_TRUE((*engine)->Commit(unit_c).ok());

    // The commits beside it are committed and readable; b's record is
    // absent, its accepted data ops are invisible orphans.
    EXPECT_EQ((*engine)->Get("commit/a").value(), "record-a");
    EXPECT_EQ((*engine)->Get("commit/b").status().code(), StatusCode::kNotFound);
    EXPECT_TRUE((*engine)->Get("commit/c").ok());
    EXPECT_EQ((*engine)->Get("data/a/1").value(), "payload-a1");
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

TEST(CommitLocalEngine, FailedRecordWriteFailsItsCommit) {
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
  CommitUnit unit_a = a.unit();
  CommitUnit unit_b = b.unit();
  EXPECT_TRUE((*engine)->Commit(unit_a).ok());
  EXPECT_FALSE((*engine)->Commit(unit_b).ok());
  EXPECT_TRUE((*engine)->Get("commit/a").ok());
  EXPECT_EQ((*engine)->Get("commit/b").status().code(), StatusCode::kNotFound);
}

TEST(CommitDefaultImpl, RunsDataThenHookThenRecord) {
  // SimDynamo has no Commit override: the default runs the unit's data
  // write, its hook, then its record. The hook sees the data landed and the
  // record not yet written.
  RealClock clock(0.002);
  SimDynamo engine(clock, InstantDynamoOptions());

  UnitFixture a = MakeUnit("a", 2);
  CommitUnit unit_a = a.unit();
  int hooks_run = 0;
  unit_a.after_data_write = [&] {
    ++hooks_run;
    EXPECT_TRUE(engine.PeekLatest("data/a/1").has_value());
    EXPECT_FALSE(engine.PeekLatest("commit/a").has_value());
    return Status::Ok();
  };
  const uint64_t calls_before = engine.counters().api_calls.load();
  EXPECT_TRUE(engine.Commit(unit_a).ok());
  EXPECT_EQ(hooks_run, 1);
  EXPECT_EQ(engine.PeekLatest("commit/a").value(), "record-a");
  // One batch call for the data, one create for the record.
  EXPECT_EQ(engine.counters().api_calls.load() - calls_before, 2u);

  // A failing hook fails its commit: the data landed, no record for c.
  UnitFixture c = MakeUnit("c", 1);
  CommitUnit unit_c = c.unit();
  unit_c.after_data_write = [] { return Status::Unavailable("hook failed"); };
  EXPECT_TRUE(engine.Commit(unit_c).IsUnavailable());
  EXPECT_TRUE(engine.PeekLatest("data/c/0").has_value());  // orphan (sweep's job)
  EXPECT_FALSE(engine.PeekLatest("commit/c").has_value());

  // Total failure: the commit fails and no record is written.
  engine.InjectTransientFaults(1.0);
  UnitFixture e = MakeUnit("e", 1);
  CommitUnit unit_e = e.unit();
  EXPECT_FALSE(engine.Commit(unit_e).ok());
  EXPECT_FALSE(engine.PeekLatest("commit/e").has_value());
}

TEST(CommitDefaultImpl, FailedDataWriteWritesNoRecord) {
  // A hook sends a LocalEngine commit through the default Commit (the
  // fused append has no point between a unit's data and its record). Unit
  // a's data write fails: a gets no record and its hook never runs, the
  // next commit b lands, and a replay agrees.
  TempDir dir;
  {
    auto engine = LocalEngine::Open(dir.path());
    ASSERT_TRUE(engine.ok());
    (*engine)->SetWriteFailureInjector([](std::string_view key) {
      return key == "data/a/0" ? Status::Unavailable("injected write failure") : Status::Ok();
    });
    UnitFixture a = MakeUnit("a", 2);
    UnitFixture b = MakeUnit("b", 2);
    CommitUnit unit_a = a.unit();
    CommitUnit unit_b = b.unit();
    int hooks_run = 0;
    for (CommitUnit* unit : {&unit_a, &unit_b}) {
      unit->after_data_write = [&hooks_run] {
        ++hooks_run;
        return Status::Ok();
      };
    }
    EXPECT_TRUE((*engine)->Commit(unit_a).IsUnavailable());
    EXPECT_TRUE((*engine)->Commit(unit_b).ok());
    EXPECT_EQ(hooks_run, 1);  // A failed data write skips the hook.
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

TEST(CommitCapability, OnlyTheLocalEngineFusesDataWithRecords) {
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

// ---- node-level contract ----------------------------------------------------

// kEquivalenceWriters writers each commit `rounds` transactions: one key
// of the writer's own that every round overwrites, and one fresh key per
// round, so the committed state does not depend on how writers interleave.
// Writers run on one thread each, or one after another on this thread.
void CommitWorkload(AftNode& node, bool concurrent, int rounds) {
  auto run_writer = [&node, rounds](int w) {
    for (int r = 0; r < rounds; ++r) {
      auto txid = node.StartTransaction();
      ASSERT_TRUE(txid.ok());
      const std::string value = std::to_string(w) + ":" + std::to_string(r);
      ASSERT_TRUE(node.Put(*txid, "slot-" + std::to_string(w), value).ok());
      ASSERT_TRUE(node.Put(*txid, "fresh-" + value, value).ok());
      ASSERT_TRUE(node.CommitTransaction(*txid).ok());
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < kEquivalenceWriters; ++w) {
    if (concurrent) {
      threads.emplace_back(run_writer, w);
    } else {
      run_writer(w);
    }
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

// Reopens the engine in `dir` (WAL replay) and reads every workload key
// through a freshly bootstrapped node. Also returns the commit-record count.
std::map<std::string, std::string> ReplayedState(const std::string& dir, int rounds,
                                                 size_t* records) {
  RealClock clock(0.002);
  std::map<std::string, std::string> state;
  auto engine = LocalEngine::Open(dir);
  EXPECT_TRUE(engine.ok());
  if (!engine.ok()) {
    return state;
  }
  *records = (*engine)->List(std::string(kCommitPrefix))->size();
  AftNode reader("reader", **engine, clock, FastNodeOptions());
  EXPECT_TRUE(reader.Start().ok());
  auto txid = reader.StartTransaction();
  EXPECT_TRUE(txid.ok());
  std::vector<std::string> keys;
  for (int w = 0; w < kEquivalenceWriters; ++w) {
    keys.push_back("slot-" + std::to_string(w));
    for (int r = 0; r < rounds; ++r) {
      keys.push_back("fresh-" + std::to_string(w) + ":" + std::to_string(r));
    }
  }
  for (const std::string& key : keys) {
    auto read = reader.Get(*txid, key);
    EXPECT_TRUE(read.ok()) << key;
    state[key] = read.ok() && read->has_value() ? **read : "<none>";
  }
  return state;
}

TEST(CommitPathNode, ConcurrentLocalEngineCommitsReplayEqualToSerial) {
  // Concurrent commits share WAL fsyncs; after a reopen they must leave
  // exactly the state the same commits leave when run one at a time.
  constexpr int kRounds = 10;
  RealClock clock(0.002);
  TempDir serial_dir;
  TempDir concurrent_dir;
  for (const auto& [dir, concurrent] :
       {std::pair{&serial_dir, false}, std::pair{&concurrent_dir, true}}) {
    auto engine = LocalEngine::Open(dir->path());
    ASSERT_TRUE(engine.ok());
    AftNode node("n0", **engine, clock, FastNodeOptions());
    ASSERT_TRUE(node.Start().ok());
    CommitWorkload(node, concurrent, kRounds);
  }
  size_t serial_records = 0;
  size_t concurrent_records = 0;
  const auto serial = ReplayedState(serial_dir.path(), kRounds, &serial_records);
  const auto concurrent = ReplayedState(concurrent_dir.path(), kRounds, &concurrent_records);
  EXPECT_EQ(serial_records, static_cast<size_t>(kEquivalenceWriters * kRounds));
  EXPECT_EQ(concurrent_records, serial_records);
  EXPECT_EQ(concurrent, serial);
  EXPECT_EQ(serial.at("slot-3"), "3:" + std::to_string(kRounds - 1));
  EXPECT_EQ(serial.at("fresh-5:4"), "5:4");
}

TEST(CommitPathNode, FailedRoundLeavesTransactionRetryable) {
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

TEST(CommitPathNode, CrashAfterDataWriteOnLocalEngineWritesNoRecord) {
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

TEST(CommitPathNode, InjectedFailureSparesConcurrentCommitters) {
  // Concurrent committers where exactly one transaction's data write fails:
  // it aborts with no commit record; every other committer commits and its
  // data survives a replay cycle.
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

// Parameter: the engine. SimDynamo's transient faults fail whole calls;
// on LocalEngine a seeded injector fails single write ops, so one commit
// fails while concurrent ones share its WAL fsync.
enum class StressEngine { kSimDynamo, kLocal };

class CommitPathStress : public ::testing::TestWithParam<StressEngine> {};

TEST_P(CommitPathStress, ConcurrentCommittersUnderTransientFaults) {
  // Many committers race against an engine that fails writes at random;
  // every failure is retried until it lands. Run under TSan in CI.
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

INSTANTIATE_TEST_SUITE_P(Engines, CommitPathStress,
                         ::testing::Values(StressEngine::kSimDynamo, StressEngine::kLocal),
                         [](const ::testing::TestParamInfo<StressEngine>& param_info) {
                           return param_info.param == StressEngine::kLocal
                                      ? std::string("LocalEngine")
                                      : std::string("SimDynamo");
                         });

}  // namespace
}  // namespace aft
