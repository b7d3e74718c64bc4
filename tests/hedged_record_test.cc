// Tests for the hedged commit-record create (src/storage/record_writer.h):
// a record write still outstanding past the observed p90 is raced by a
// second conditional create, the call returns at the first success and
// fails only once both attempts returned, no record gains a second entry,
// and a record whose losing write is in flight stays pinned against both
// garbage collectors until that write returns. Node and engine teardown
// wait for it, and for a winning attempt still waking the caller. Time is a SimClock: the hedge tests turn auto-advance off and
// move time by hand once every expected thread sleeps on the clock.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/core/aft_node.h"
#include "src/obs/metrics.h"
#include "src/storage/record_writer.h"
#include "src/storage/sim_engine_base.h"

namespace aft {
namespace {

constexpr Duration kWarmLatency = std::chrono::milliseconds(100);

EngineLatencyProfile ZeroProfile() {
  return EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(), LatencyModel::Zero(),
                              LatencyModel::Zero(), LatencyModel::Zero(), LatencyModel::Zero()};
}

// How the next conditional create behaves: how long it takes, and whether
// it fails instead of landing.
struct Step {
  Duration latency;
  bool fail = false;
};

// The steps the creates take, in order; past the queued ones every create
// takes kWarmLatency.
class Script {
 public:
  void Push(Step step) {
    std::lock_guard<std::mutex> lock(mu_);
    steps_.push_back(step);
  }
  Step Next() {
    std::lock_guard<std::mutex> lock(mu_);
    if (steps_.empty()) {
      return Step{kWarmLatency};
    }
    const Step step = steps_.front();
    steps_.pop_front();
    return step;
  }
  std::atomic<size_t> returned{0};

 private:
  std::mutex mu_;
  std::deque<Step> steps_;
};

// Zero-latency engine without a batch API (S3-like) whose conditional
// creates follow a Script.
class ScriptedEngine final : public SimEngineBase {
 public:
  ScriptedEngine(Clock& clock, Script& script)
      : SimEngineBase("hedge-scripted", clock, ZeroProfile(), StalenessModel{}, 16),
        script_(script) {}
  // A losing attempt may still be sleeping in PutIfAbsent below.
  ~ScriptedEngine() override { AwaitRecordWrites(); }
  size_t MaxBatchSize() const override { return 1; }
  Status PutIfAbsent(std::string key, std::string value) override {
    const Step step = script_.Next();
    clock().SleepFor(step.latency);
    Status status = step.fail ? Status::Unavailable("scripted create failure")
                              : SimEngineBase::PutIfAbsent(std::move(key), std::move(value));
    script_.returned.fetch_add(1);
    return status;
  }
  bool HasHistory(const std::string& key) const { return map_.HasHistory(key); }

 private:
  Script& script_;
};

// One commit round holding only a record.
Status CreateRecord(StorageEngine& engine, const std::string& key, const std::string& value) {
  CommitUnit unit;
  unit.commit_record = WriteOp{key, value};
  return engine.Commit(unit);
}

// Fills the writer's window with kWarmLatency creates (auto-advance on, so
// each runs inline and costs no real time), leaving the hedge delay there.
void WarmUp(ScriptedEngine& engine) {
  for (size_t i = 0; i < RecordWriter::kWindow; ++i) {
    ASSERT_TRUE(CreateRecord(engine, "c/warm-" + std::to_string(i), "w").ok());
  }
  ASSERT_EQ(engine.record_writer().hedge_delay(), kWarmLatency);
  ASSERT_EQ(engine.record_writer().hedged_writes(), 0u);
}

// Polls `pred` for up to 20 s. On timeout the test aborts rather than fails:
// its threads wait for virtual time that will never come, so it could not
// finish.
template <typename Pred>
void AwaitTrue(Pred pred, const std::string& what) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "timed out: %s\n", what.c_str());
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Blocks until exactly `n` threads sleep on `clock`.
void AwaitSleepers(SimClock& clock, size_t n) {
  AwaitTrue([&] { return clock.sleepers() == n; },
            "waiting for " + std::to_string(n) + " threads to sleep on the clock");
}

// A create on its own thread, so the test can move time while it waits.
class AsyncCreate {
 public:
  AsyncCreate(StorageEngine& engine, std::string key, std::string value)
      : thread_([this, &engine, key = std::move(key), value = std::move(value)] {
          status_ = CreateRecord(engine, key, value);
          done_.store(true);
        }) {}
  ~AsyncCreate() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  bool done() const { return done_.load(); }
  Status Join() {
    thread_.join();
    return status_;
  }

 private:
  Status status_;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

TEST(HedgedRecordTest, SlowPrimaryIsHedgedAndTheCallReturnsAtTheHedge) {
  SimClock clock;
  Script script;
  ScriptedEngine engine(clock, script);
  WarmUp(engine);
  const uint64_t puts_before = engine.counters().puts.load();

  clock.set_auto_advance(false);
  script.Push(Step{std::chrono::milliseconds(1000)});  // Primary.
  script.Push(Step{std::chrono::milliseconds(5)});     // Hedge.
  const TimePoint start = clock.Now();
  AsyncCreate create(engine, "c/slow", "record-bytes");
  AwaitSleepers(clock, 2);  // The caller's hedge wait and the primary.
  clock.Advance(kWarmLatency);
  AwaitSleepers(clock, 3);  // The hedge joins them.
  clock.Advance(std::chrono::milliseconds(5));
  ASSERT_TRUE(create.Join().ok());
  EXPECT_EQ(clock.Now() - start, kWarmLatency + std::chrono::milliseconds(5));
  EXPECT_EQ(engine.record_writer().hedged_writes(), 1u);
  EXPECT_EQ(engine.record_writer().hedge_wins(), 1u);
  EXPECT_EQ(engine.PeekLatest("c/slow"), "record-bytes");

  // The primary is still in flight; when it lands it finds the record.
  clock.Advance(std::chrono::milliseconds(1000));
  AwaitTrue([&] { return script.returned.load() == RecordWriter::kWindow + 2; },
            "the losing primary never returned");
  EXPECT_EQ(engine.PeekLatest("c/slow"), "record-bytes");
  // One PUT per create plus one per hedge.
  EXPECT_EQ(engine.counters().puts.load() - puts_before,
            1 + engine.record_writer().hedged_writes());
  // No record has a second entry, so no read of one can be stale.
  const auto records = engine.List("c/");
  ASSERT_TRUE(records.ok());
  for (const std::string& key : *records) {
    EXPECT_FALSE(engine.HasHistory(key)) << key;
  }
}

TEST(HedgedRecordTest, FastPrimaryNeverHedges) {
  SimClock clock;
  Script script;
  ScriptedEngine engine(clock, script);
  WarmUp(engine);

  clock.set_auto_advance(false);
  script.Push(Step{std::chrono::milliseconds(10)});
  const TimePoint start = clock.Now();
  AsyncCreate create(engine, "c/fast", "record-bytes");
  AwaitSleepers(clock, 2);
  clock.Advance(std::chrono::milliseconds(10));
  ASSERT_TRUE(create.Join().ok());
  EXPECT_EQ(clock.Now() - start, std::chrono::milliseconds(10));
  EXPECT_EQ(engine.record_writer().hedged_writes(), 0u);
  EXPECT_EQ(script.returned.load(), RecordWriter::kWindow + 1);
}

TEST(HedgedRecordTest, FailureIsReportedOnlyAfterBothAttemptsReturn) {
  SimClock clock;
  Script script;
  ScriptedEngine engine(clock, script);
  WarmUp(engine);

  clock.set_auto_advance(false);
  script.Push(Step{std::chrono::milliseconds(1000), /*fail=*/true});
  script.Push(Step{std::chrono::milliseconds(5), /*fail=*/true});
  AsyncCreate create(engine, "c/doomed", "record-bytes");
  AwaitSleepers(clock, 2);
  clock.Advance(kWarmLatency);
  AwaitSleepers(clock, 3);
  clock.Advance(std::chrono::milliseconds(5));
  AwaitTrue([&] { return script.returned.load() == RecordWriter::kWindow + 1; },
            "the hedge never returned");
  // The hedge failed, but the primary is still in flight: no answer yet.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(create.done());
  clock.Advance(std::chrono::milliseconds(1000));
  const Status status = create.Join();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(script.returned.load(), RecordWriter::kWindow + 2);
  EXPECT_FALSE(engine.PeekLatest("c/doomed").has_value());
}

TEST(HedgedRecordTest, BelowTheFloorEveryCreateIsInline) {
  SimClock clock;
  Script script;
  ScriptedEngine engine(clock, script);
  for (size_t i = 0; i < 2 * RecordWriter::kWindow; ++i) {
    script.Push(Step{RecordWriter::kHedgeFloor / 2});
  }
  for (size_t i = 0; i < 2 * RecordWriter::kWindow; ++i) {
    ASSERT_TRUE(CreateRecord(engine, "c/" + std::to_string(i), "r").ok());
  }
  EXPECT_EQ(engine.record_writer().hedge_delay(), RecordWriter::kHedgeFloor / 2);
  EXPECT_EQ(engine.record_writer().hedged_writes(), 0u);
  // A create that already landed counts as created.
  EXPECT_TRUE(CreateRecord(engine, "c/0", "other").ok());
  EXPECT_EQ(engine.PeekLatest("c/0"), "r");
  EXPECT_FALSE(engine.HasHistory("c/0"));
}

TEST(HedgedRecordTest, MetricsExportHedgesAndDelay) {
  SimClock clock;
  Script script;
  ScriptedEngine engine(clock, script);
  WarmUp(engine);
  const std::string text = obs::MetricsRegistry::Global().Exposition();
  EXPECT_NE(text.find("aft_storage_hedged_writes_total{engine=\"hedge-scripted\"}"),
            std::string::npos);
  EXPECT_NE(text.find("aft_storage_hedge_wins_total{engine=\"hedge-scripted\"}"),
            std::string::npos);
  EXPECT_NE(text.find("aft_storage_hedge_delay_ms{engine=\"hedge-scripted\"} 100"),
            std::string::npos);
}

// ---- The committing node ------------------------------------------------------------

AftNodeOptions NodeOptions() {
  AftNodeOptions options;
  options.service_cores = 0;
  options.data_cache_bytes = 0;
  return options;
}

Result<TxnId> CommitOne(AftNode& node, const std::string& key, const std::string& value) {
  auto txid = node.StartTransaction();
  if (!txid.ok()) {
    return txid.status();
  }
  AFT_RETURN_IF_ERROR(node.Put(*txid, key, value));
  return node.CommitTransaction(*txid);
}

// Commits of `key` on their own thread, so the test can move time.
class AsyncCommit {
 public:
  AsyncCommit(AftNode& node, std::string key, std::string value)
      : thread_([this, &node, key = std::move(key), value = std::move(value)] {
          result_ = CommitOne(node, key, value);
        }) {}
  ~AsyncCommit() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  Result<TxnId> Join() {
    thread_.join();
    return result_;
  }

 private:
  Result<TxnId> result_ = Status::Internal("commit never ran");
  std::thread thread_;
};

void WarmUp(AftNode& node, ScriptedEngine& engine) {
  for (size_t i = 0; i < RecordWriter::kWindow; ++i) {
    ASSERT_TRUE(CommitOne(node, "warm", "w").ok());
  }
  ASSERT_EQ(engine.record_writer().hedge_delay(), kWarmLatency);
}

// Commits "k" with a hedge that wins while the primary is still in flight,
// leaving that primary sleeping on the clock (auto-advance off).
TxnId CommitWithLosingPrimary(SimClock& clock, Script& script, AftNode& node) {
  clock.set_auto_advance(false);
  script.Push(Step{std::chrono::milliseconds(1000)});
  script.Push(Step{std::chrono::milliseconds(5)});
  AsyncCommit commit(node, "k", "hedged");
  AwaitSleepers(clock, 2);
  clock.Advance(kWarmLatency);
  AwaitSleepers(clock, 3);
  clock.Advance(std::chrono::milliseconds(5));
  auto id = commit.Join();
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return id.ok() ? *id : TxnId();
}

TEST(HedgedRecordTest, RecordWithAWriteInFlightIsNeverCollected) {
  SimClock clock;
  Script script;
  ScriptedEngine engine(clock, script);
  AftNode node("hedge-node", engine, clock, NodeOptions());
  ASSERT_TRUE(node.Start().ok());
  WarmUp(node, engine);
  const TxnId hedged = CommitWithLosingPrimary(clock, script, node);

  // A later commit of "k" supersedes it (its own create is fast).
  script.Push(Step{std::chrono::milliseconds(10)});
  AsyncCommit later(node, "k", "later");
  AwaitSleepers(clock, 3);  // The losing primary, the caller, the create.
  clock.Advance(std::chrono::milliseconds(10));
  ASSERT_TRUE(later.Join().ok());
  std::vector<CommitRecordPtr> drained;
  node.DrainRecentCommits(&drained, nullptr, nullptr);  // Nothing pends broadcast.

  // Superseded, read by nobody, but a write of its record may still land.
  node.RunLocalGcOnce();
  EXPECT_FALSE(node.HasLocallyDeleted(hedged));
  EXPECT_FALSE(node.CanGloballyDelete(hedged));

  clock.Advance(std::chrono::milliseconds(1000));
  AwaitTrue(
      [&] {
        node.RunLocalGcOnce();
        return node.HasLocallyDeleted(hedged);
      },
      "the record stayed pinned after its last write returned");
  EXPECT_TRUE(node.CanGloballyDelete(hedged));
  EXPECT_FALSE(engine.HasHistory(CommitStorageKey(hedged)));
}

TEST(HedgedRecordTest, NodeTeardownWaitsForTheLosingWrite) {
  SimClock clock;
  Script script;
  ScriptedEngine engine(clock, script);
  auto node = std::make_unique<AftNode>("hedge-node", engine, clock, NodeOptions());
  ASSERT_TRUE(node->Start().ok());
  WarmUp(*node, engine);
  CommitWithLosingPrimary(clock, script, *node);

  std::atomic<bool> destroyed{false};
  std::thread teardown([&] {
    node.reset();
    destroyed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(destroyed.load());
  clock.Advance(std::chrono::milliseconds(1000));
  teardown.join();
  EXPECT_EQ(script.returned.load(), RecordWriter::kWindow + 2);
}

TEST(HedgedRecordTest, EngineTeardownWaitsForTheLosingWrite) {
  SimClock clock;
  Script script;
  auto engine = std::make_unique<ScriptedEngine>(clock, script);
  WarmUp(*engine);

  clock.set_auto_advance(false);
  script.Push(Step{std::chrono::milliseconds(1000)});
  script.Push(Step{std::chrono::milliseconds(5)});
  AsyncCreate create(*engine, "c/slow", "record-bytes");
  AwaitSleepers(clock, 2);
  clock.Advance(kWarmLatency);
  AwaitSleepers(clock, 3);
  clock.Advance(std::chrono::milliseconds(5));
  ASSERT_TRUE(create.Join().ok());

  std::atomic<bool> destroyed{false};
  std::thread teardown([&] {
    engine.reset();
    destroyed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(destroyed.load());
  clock.Advance(std::chrono::milliseconds(1000));
  teardown.join();
  EXPECT_EQ(script.returned.load(), RecordWriter::kWindow + 2);
}

// A SimClock whose Notify, while held, parks its caller until released.
class GatedClock final : public SimClock {
 public:
  void Notify() override {
    if (hold_.load()) {
      parked_.store(true);
      while (hold_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    SimClock::Notify();
  }
  void Hold() { hold_.store(true); }
  void Release() { hold_.store(false); }
  bool parked() const { return parked_.load(); }

 private:
  std::atomic<bool> hold_{false};
  std::atomic<bool> parked_{false};
};

// The winning attempt wakes the caller through the writer's clock after it
// has answered. If the losing attempt settles meanwhile, teardown must still
// wait for the winner to leave the writer.
TEST(HedgedRecordTest, EngineTeardownWaitsForTheAnsweringAttempt) {
  GatedClock clock;
  Script script;
  auto engine = std::make_unique<ScriptedEngine>(clock, script);
  WarmUp(*engine);

  clock.set_auto_advance(false);
  clock.Hold();
  script.Push(Step{std::chrono::milliseconds(1000)});  // Primary: loses.
  script.Push(Step{std::chrono::milliseconds(5)});     // Hedge: wins, parks in Notify.
  AsyncCreate create(*engine, "c/slow", "record-bytes");
  AwaitSleepers(clock, 2);
  clock.Advance(kWarmLatency);
  AwaitSleepers(clock, 3);
  clock.Advance(std::chrono::milliseconds(5));
  AwaitTrue([&] { return clock.parked(); }, "the winning hedge never notified");
  // The primary returns and settles; the caller wakes and sees the answer.
  clock.Advance(std::chrono::milliseconds(1000));
  ASSERT_TRUE(create.Join().ok());
  AwaitTrue([&] { return script.returned.load() == RecordWriter::kWindow + 2; },
            "the losing primary never returned");

  std::atomic<bool> destroyed{false};
  std::thread teardown([&] {
    engine.reset();
    destroyed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(destroyed.load()) << "the writer went while an attempt was still inside it";
  clock.Release();
  teardown.join();
}

}  // namespace
}  // namespace aft
