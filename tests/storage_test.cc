// Unit tests for the simulated storage engines.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/core/aft_node.h"
#include "src/core/records.h"
#include "src/obs/metrics.h"
#include "src/storage/local_engine.h"
#include "src/storage/sim_dynamo.h"
#include "src/storage/sim_engine_base.h"
#include "src/storage/sim_redis.h"
#include "src/storage/sim_s3.h"
#include "src/storage/versioned_map.h"

namespace aft {
namespace {

// Zero-latency profiles keep protocol tests instantaneous.
EngineLatencyProfile ZeroProfile() {
  return EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(), LatencyModel::Zero(),
                              LatencyModel::Zero(), LatencyModel::Zero(), LatencyModel::Zero()};
}

SimDynamoOptions FastDynamo() {
  SimDynamoOptions options;
  options.profile = ZeroProfile();
  options.staleness = StalenessModel{};
  options.txn_call = LatencyModel::Zero();
  return options;
}

SimS3Options FastS3() {
  SimS3Options options;
  options.profile = ZeroProfile();
  options.staleness = StalenessModel{};
  return options;
}

SimRedisOptions FastRedis() {
  SimRedisOptions options;
  options.profile = ZeroProfile();
  return options;
}

// ---- VersionedMap ----------------------------------------------------------------

TEST(VersionedMapTest, PutGetLatest) {
  VersionedMap map;
  map.Put("a", "1", TimePoint(Millis(10)));
  EXPECT_EQ(map.GetLatest("a").value(), "1");
  EXPECT_FALSE(map.GetLatest("b").has_value());
}

TEST(VersionedMapTest, HistoricalReadsObserveOldValues) {
  VersionedMap map;
  map.Put("a", "v1", TimePoint(Millis(10)));
  map.Put("a", "v2", TimePoint(Millis(20)));
  bool stale = false;
  EXPECT_EQ(map.Get("a", TimePoint(Millis(15)), &stale).value(), "v1");
  EXPECT_TRUE(stale);
  EXPECT_EQ(map.Get("a", TimePoint(Millis(25)), &stale).value(), "v2");
  EXPECT_FALSE(stale);
  // Before creation: invisible.
  EXPECT_FALSE(map.Get("a", TimePoint(Millis(5))).has_value());
}

TEST(VersionedMapTest, DeleteWritesTombstone) {
  VersionedMap map;
  map.Put("a", "v1", TimePoint(Millis(10)));
  map.Delete("a", TimePoint(Millis(20)));
  EXPECT_FALSE(map.GetLatest("a").has_value());
  // A sufficiently stale read still sees the pre-delete value.
  EXPECT_EQ(map.Get("a", TimePoint(Millis(15))).value(), "v1");
}

TEST(VersionedMapTest, ListReturnsSortedLiveKeysWithPrefix) {
  VersionedMap map;
  const TimePoint t(Millis(1));
  map.Put("p/b", "1", t);
  map.Put("p/a", "1", t);
  map.Put("q/z", "1", t);
  map.Put("p/c", "1", t);
  map.Delete("p/c", TimePoint(Millis(2)));
  EXPECT_EQ(map.List("p/"), (std::vector<std::string>{"p/a", "p/b"}));
  EXPECT_EQ(map.List(""), (std::vector<std::string>{"p/a", "p/b", "q/z"}));
}

TEST(VersionedMapTest, HistoryDepthIsBounded) {
  VersionedMap map(4, /*history_depth=*/3);
  for (int i = 0; i < 10; ++i) {
    map.Put("a", std::to_string(i), TimePoint(Millis(i)));
  }
  // Entries older than the retained window are gone: a very stale read now
  // observes the oldest retained entry rather than the true historical one.
  EXPECT_EQ(map.GetLatest("a").value(), "9");
  EXPECT_TRUE(map.HasHistory("a"));
}

TEST(VersionedMapTest, FullyTombstonedKeysDisappear) {
  VersionedMap map(4, 1);
  map.Put("a", "1", TimePoint(Millis(1)));
  map.Delete("a", TimePoint(Millis(2)));
  EXPECT_EQ(map.ApproximateKeyCount(), 0u);
}

TEST(VersionedMapTest, PutIfAbsentLandsOneEntryOnly) {
  VersionedMap map(4);
  EXPECT_TRUE(map.PutIfAbsent("a", "1", TimePoint(Millis(1))));
  EXPECT_FALSE(map.PutIfAbsent("a", "2", TimePoint(Millis(2))));
  EXPECT_EQ(map.GetLatest("a").value(), "1");
  EXPECT_FALSE(map.HasHistory("a"));
}

// A written-once key deleted under a 100 ms horizon: stale reads inside the
// horizon still see its value; the shard's next mutation past the horizon
// erases it.
TEST(VersionedMapTest, DeletedKeyIsErasedPastTheRetentionHorizon) {
  VersionedMap map(/*num_shards=*/1, /*history_depth=*/8, /*retention=*/Millis(100));
  map.Put("a", "v1", TimePoint(Millis(10)));
  map.Delete("a", TimePoint(Millis(20)));
  map.Put("b", "1", TimePoint(Millis(119)));  // Inside the horizon: kept.
  EXPECT_EQ(map.Get("a", TimePoint(Millis(15))).value(), "v1");
  EXPECT_FALSE(map.GetLatest("a").has_value());
  EXPECT_TRUE(map.HasHistory("a"));
  EXPECT_EQ(map.ApproximateKeyCount(), 2u);

  map.Put("b", "2", TimePoint(Millis(120)));  // The tombstone is 100 ms old.
  EXPECT_EQ(map.ApproximateKeyCount(), 1u);
  EXPECT_FALSE(map.Get("a", TimePoint(Millis(15))).has_value());
  EXPECT_FALSE(map.HasHistory("a"));
  // Written again, the key is new: no history, so no stale reads.
  map.Put("a", "v2", TimePoint(Millis(130)));
  EXPECT_FALSE(map.HasHistory("a"));
  EXPECT_EQ(map.GetLatest("a").value(), "v2");
}

// A tombstone whose key was written again reaps nothing.
TEST(VersionedMapTest, RewrittenKeyOutlivesItsOldTombstone) {
  VersionedMap map(1, 8, Millis(100));
  map.Put("a", "v1", TimePoint(Millis(10)));
  map.Delete("a", TimePoint(Millis(20)));
  map.Put("a", "v2", TimePoint(Millis(30)));
  map.Put("b", "1", TimePoint(Millis(500)));
  EXPECT_EQ(map.GetLatest("a").value(), "v2");
  EXPECT_TRUE(map.HasHistory("a"));
}

// An overwritten key keeps only what a read inside the horizon can reach,
// and still counts as overwritten.
TEST(VersionedMapTest, OverwrittenHistoryShrinksToTheHorizon) {
  VersionedMap map(1, 8, Millis(25));
  for (int i = 0; i <= 10; ++i) {
    map.Put("a", std::to_string(i), TimePoint(Millis(10 * i)));
  }
  // At t=100 the horizon reaches back to t=75: the value written at 70 is
  // still served there, everything older is gone.
  EXPECT_EQ(map.Get("a", TimePoint(Millis(75))).value(), "7");
  EXPECT_FALSE(map.Get("a", TimePoint(Millis(65))).has_value());
  EXPECT_EQ(map.GetLatest("a").value(), "10");
  EXPECT_TRUE(map.HasHistory("a"));
}

// A consistent engine's horizon is zero: one entry per key, and a deleted
// key goes at once.
TEST(VersionedMapTest, ConsistentEngineKeepsOneEntryPerKey) {
  ASSERT_EQ(StalenessModel{}.Retention(), Duration::zero());
  VersionedMap map(4, 8, StalenessModel{}.Retention());
  map.Put("a", "v1", TimePoint(Millis(10)));
  map.Put("a", "v2", TimePoint(Millis(10)));
  map.Put("a", "v3", TimePoint(Millis(20)));
  EXPECT_FALSE(map.Get("a", TimePoint(Millis(15))).has_value()) << "older entries were kept";
  EXPECT_EQ(map.GetLatest("a").value(), "v3");
  EXPECT_TRUE(map.HasHistory("a"));
  map.Put("b", "1", TimePoint(Millis(20)));
  map.Delete("b", TimePoint(Millis(20)));
  EXPECT_EQ(map.ApproximateKeyCount(), 1u);
}

// ---- Engine basics (parameterized over all three engines) -------------------------

enum class EngineKind { kS3, kDynamo, kRedis, kLocal };

class EngineTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  EngineTest() {
    switch (GetParam()) {
      case EngineKind::kS3:
        engine_ = std::make_unique<SimS3>(clock_, FastS3());
        break;
      case EngineKind::kDynamo:
        engine_ = std::make_unique<SimDynamo>(clock_, FastDynamo());
        break;
      case EngineKind::kRedis:
        engine_ = std::make_unique<SimRedis>(clock_, FastRedis());
        break;
      case EngineKind::kLocal: {
        char tmpl[] = "/tmp/aft_storage_XXXXXX";
        const char* dir = ::mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        local_dir_ = dir == nullptr ? "" : dir;
        auto engine = LocalEngine::Open(local_dir_);
        EXPECT_TRUE(engine.ok());
        engine_ = std::move(*engine);
        break;
      }
    }
  }

  ~EngineTest() override {
    engine_.reset();
    if (!local_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(local_dir_, ec);
    }
  }

  SimClock clock_;
  std::unique_ptr<StorageEngine> engine_;
  std::string local_dir_;
};

TEST_P(EngineTest, GetMissingKeyIsNotFound) {
  auto result = engine_->Get("nope");
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST_P(EngineTest, PutThenGetRoundTrips) {
  ASSERT_TRUE(engine_->Put("k", "value").ok());
  auto result = engine_->Get("k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, "value");
}

TEST_P(EngineTest, OverwriteReplacesValue) {
  ASSERT_TRUE(engine_->Put("k", "v1").ok());
  ASSERT_TRUE(engine_->Put("k", "v2").ok());
  EXPECT_EQ(*engine_->Get("k"), "v2");
}

TEST_P(EngineTest, DeleteRemovesKeyAndIsIdempotent) {
  ASSERT_TRUE(engine_->Put("k", "v").ok());
  ASSERT_TRUE(engine_->Delete("k").ok());
  EXPECT_TRUE(engine_->Get("k").status().IsNotFound());
  EXPECT_TRUE(engine_->Delete("k").ok());
}

TEST_P(EngineTest, PutIfAbsentCreatesButNeverOverwrites) {
  const uint64_t puts_before = engine_->counters().puts.load();
  ASSERT_TRUE(engine_->PutIfAbsent("c/a", "first").ok());
  EXPECT_EQ(engine_->PutIfAbsent("c/a", "second").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(engine_->Get("c/a").value(), "first");
  EXPECT_EQ(engine_->counters().puts.load() - puts_before, 2u);
  // A deleted key is absent again.
  ASSERT_TRUE(engine_->Delete("c/a").ok());
  ASSERT_TRUE(engine_->PutIfAbsent("c/a", "third").ok());
  EXPECT_EQ(engine_->Get("c/a").value(), "third");
}

TEST_P(EngineTest, BatchPutWritesAllKeys) {
  std::vector<WriteOp> ops;
  for (int i = 0; i < 60; ++i) {  // More than one DynamoDB batch chunk.
    ops.push_back(WriteOp{"key" + std::to_string(i), "v" + std::to_string(i)});
  }
  ASSERT_TRUE(engine_->BatchPut(ops).ok());
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(*engine_->Get("key" + std::to_string(i)), "v" + std::to_string(i));
  }
}

TEST_P(EngineTest, BatchDeleteRemovesAllKeys) {
  std::vector<WriteOp> ops;
  std::vector<std::string> keys;
  for (int i = 0; i < 30; ++i) {
    ops.push_back(WriteOp{"key" + std::to_string(i), "v"});
    keys.push_back("key" + std::to_string(i));
  }
  ASSERT_TRUE(engine_->BatchPut(ops).ok());
  ASSERT_TRUE(engine_->BatchDelete(keys).ok());
  for (const auto& key : keys) {
    EXPECT_TRUE(engine_->Get(key).status().IsNotFound());
  }
}

TEST_P(EngineTest, ListFiltersByPrefix) {
  ASSERT_TRUE(engine_->Put("a/1", "v").ok());
  ASSERT_TRUE(engine_->Put("a/2", "v").ok());
  ASSERT_TRUE(engine_->Put("b/1", "v").ok());
  auto result = engine_->List("a/");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, (std::vector<std::string>{"a/1", "a/2"}));
}

TEST_P(EngineTest, CountersTrackOperations) {
  (void)engine_->Put("k", "v");
  (void)engine_->Get("k");
  (void)engine_->Get("missing");
  EXPECT_EQ(engine_->counters().puts.load(), 1u);
  EXPECT_EQ(engine_->counters().gets.load(), 2u);
  EXPECT_GT(engine_->counters().bytes_written.load(), 0u);
}

TEST_P(EngineTest, ConcurrentWritersDoNotCorrupt) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "k" + std::to_string(i % 17);
        (void)engine_->Put(key, "t" + std::to_string(t));
        (void)engine_->Get(key);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Every key holds a valid value written by some thread.
  for (int i = 0; i < 17; ++i) {
    auto result = engine_->Get("k" + std::to_string(i));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->substr(0, 1), "t");
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineTest,
                         ::testing::Values(EngineKind::kS3, EngineKind::kDynamo,
                                           EngineKind::kRedis, EngineKind::kLocal),
                         [](const ::testing::TestParamInfo<EngineKind>& param_info) {
                           switch (param_info.param) {
                             case EngineKind::kS3:
                               return "S3";
                             case EngineKind::kDynamo:
                               return "Dynamo";
                             case EngineKind::kRedis:
                               return "Redis";
                             case EngineKind::kLocal:
                               return "Local";
                           }
                           return "Unknown";
                         });

// ---- Engine-specific behaviour ------------------------------------------------------

TEST(SimS3Test, HasNoBatchSupport) {
  SimClock clock;
  SimS3 s3(clock, FastS3());
  EXPECT_EQ(s3.MaxBatchSize(), 1u);
  std::vector<WriteOp> ops{{"a", "1"}, {"b", "2"}};
  ASSERT_TRUE(s3.BatchPut(ops).ok());
  // Degraded to two sequential puts — no batch API call was made.
  EXPECT_EQ(s3.counters().puts.load(), 2u);
  EXPECT_EQ(s3.counters().batch_puts.load(), 0u);
}

TEST(SimS3Test, LatencyIsChargedToClock) {
  SimClock clock;
  SimS3Options options;  // Default (non-zero) latency profile.
  SimS3 s3(clock, options);
  const TimePoint before = clock.Now();
  (void)s3.Put("k", "v");
  EXPECT_GT(clock.Now(), before);  // The put slept on the simulated clock.
}

TEST(SimS3Test, StaleReadsHappenOnOverwrittenKeys) {
  SimClock clock;
  SimS3Options options = FastS3();
  options.staleness = StalenessModel{1.0, Millis(8)};  // Every read samples staleness.
  SimS3 s3(clock, options);
  ASSERT_TRUE(s3.Put("k", "v1").ok());
  clock.Advance(Millis(10));
  ASSERT_TRUE(s3.Put("k", "v2").ok());
  clock.Advance(Millis(10));
  // Reads at t=20 with mean-8ms staleness frequently observe the t=0 value.
  int observed_old = 0;
  for (int i = 0; i < 200; ++i) {
    auto result = s3.Get("k");
    if (result.ok() && *result == "v1") {
      ++observed_old;
    }
  }
  EXPECT_GT(observed_old, 0);
  EXPECT_GT(s3.counters().stale_reads.load(), 0u);
}

TEST(SimS3Test, NewKeysAreReadAfterWriteConsistent) {
  SimClock clock;
  SimS3Options options = FastS3();
  options.staleness = StalenessModel{1.0, Millis(1000)};
  SimS3 s3(clock, options);
  // Never-overwritten keys are exempt from staleness (2020 S3 semantics).
  for (int i = 0; i < 50; ++i) {
    const std::string key = "new" + std::to_string(i);
    ASSERT_TRUE(s3.Put(key, "v").ok());
    auto result = s3.Get(key);
    ASSERT_TRUE(result.ok()) << key;
    EXPECT_EQ(*result, "v");
  }
}

TEST(SimDynamoTest, BatchRespectsChunkLimit) {
  SimClock clock;
  SimDynamo dynamo(clock, FastDynamo());
  EXPECT_EQ(dynamo.MaxBatchSize(), 25u);
  std::vector<WriteOp> ops;
  for (int i = 0; i < 60; ++i) {
    ops.push_back(WriteOp{"k" + std::to_string(i), "v"});
  }
  ASSERT_TRUE(dynamo.BatchPut(ops).ok());
  EXPECT_EQ(dynamo.counters().batch_puts.load(), 3u);  // 25 + 25 + 10.
  EXPECT_EQ(dynamo.counters().puts.load(), 0u);
}

// A batched write is one API call: one sleep of the base sample plus a
// sample per item, and the op=batch histogram observes exactly that sleep.
TEST(SimDynamoTest, BatchChargeIsOneSleepObservedWhole) {
  SimClock clock;
  SimDynamo dynamo(clock);  // Default latency models: a non-zero per-item cost.
  obs::Histogram* batch = obs::MetricsRegistry::Global().GetHistogram(
      "aft_storage_op_latency_ms", "Charged storage latency per operation (ms)",
      DefaultLatencyBoundariesMs(), {{"engine", "dynamodb"}, {"op", "batch"}});
  std::vector<WriteOp> ops;
  for (int i = 0; i < 20; ++i) {
    ops.push_back(WriteOp{"k" + std::to_string(i), "v"});
  }
  const uint64_t count_before = batch->Count();
  const double sum_before = batch->Sum();
  const TimePoint start = clock.Now();
  ASSERT_TRUE(dynamo.BatchPut(ops).ok());
  EXPECT_EQ(batch->Count() - count_before, 1u);
  EXPECT_NEAR(batch->Sum() - sum_before, ToMillis(clock.Now() - start), 1e-6);
}

TEST(SimDynamoTest, TransactWriteThenTransactGet) {
  SimClock clock;
  SimDynamo dynamo(clock, FastDynamo());
  std::vector<WriteOp> ops{{"x", "1"}, {"y", "2"}};
  ASSERT_TRUE(dynamo.TransactWrite(ops).ok());
  std::vector<std::string> keys{"x", "y", "z"};
  auto result = dynamo.TransactGet(keys);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->at(0).value(), "1");
  EXPECT_EQ(result->at(1).value(), "2");
  EXPECT_FALSE(result->at(2).has_value());
}

TEST(SimDynamoTest, ConflictingTransactionsAbort) {
  // Use a real clock with non-zero transaction latency so the lock window is
  // wide enough for two threads to collide.
  RealClock clock(1.0);
  SimDynamoOptions options = FastDynamo();
  options.txn_call = LatencyModel(20.0, 0.0, 20.0);
  SimDynamo dynamo(clock, options);
  std::atomic<int> conflicts{0};
  std::atomic<int> successes{0};
  auto worker = [&] {
    std::vector<WriteOp> ops{{"hot", "v"}};
    Status status = dynamo.TransactWrite(ops);
    if (status.IsAborted()) {
      conflicts.fetch_add(1);
    } else if (status.ok()) {
      successes.fetch_add(1);
    }
  };
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
  EXPECT_EQ(successes.load() + conflicts.load(), 2);
  EXPECT_GE(successes.load(), 1);
  EXPECT_EQ(dynamo.txn_counters().txn_conflicts.load(),
            static_cast<uint64_t>(conflicts.load()));
}

TEST(SimRedisTest, MSetWithinShardSucceeds) {
  SimClock clock;
  SimRedisOptions options = FastRedis();
  options.num_shards = 2;
  SimRedis redis(clock, options);
  // Find two keys on the same shard.
  std::vector<std::string> same_shard;
  for (int i = 0; same_shard.size() < 2 && i < 100; ++i) {
    std::string key = "k" + std::to_string(i);
    if (redis.ShardOf(key) == 0) {
      same_shard.push_back(key);
    }
  }
  ASSERT_EQ(same_shard.size(), 2u);
  std::vector<WriteOp> ops{{same_shard[0], "a"}, {same_shard[1], "b"}};
  ASSERT_TRUE(redis.MSet(ops).ok());
  EXPECT_EQ(*redis.Get(same_shard[0]), "a");
  EXPECT_EQ(*redis.Get(same_shard[1]), "b");
}

TEST(SimRedisTest, MSetAcrossShardsIsCrossslot) {
  SimClock clock;
  SimRedisOptions options = FastRedis();
  options.num_shards = 2;
  SimRedis redis(clock, options);
  std::string shard0;
  std::string shard1;
  for (int i = 0; (shard0.empty() || shard1.empty()) && i < 100; ++i) {
    std::string key = "k" + std::to_string(i);
    (redis.ShardOf(key) == 0 ? shard0 : shard1) = key;
  }
  std::vector<WriteOp> ops{{shard0, "a"}, {shard1, "b"}};
  EXPECT_EQ(redis.MSet(ops).code(), StatusCode::kInvalidArgument);
}

TEST(SimRedisTest, ReadsAreNeverStale) {
  SimClock clock;
  SimRedis redis(clock, FastRedis());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(redis.Put("k", std::to_string(i)).ok());
    EXPECT_EQ(*redis.Get("k"), std::to_string(i));
  }
  EXPECT_EQ(redis.counters().stale_reads.load(), 0u);
}

// ---- LocalEngine (the durable WAL-backed engine) ------------------------------------

class LocalEngineTest : public ::testing::Test {
 protected:
  LocalEngineTest() {
    char tmpl[] = "/tmp/aft_local_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    dir_ = dir == nullptr ? "" : dir;
    auto engine = LocalEngine::Open(dir_);
    EXPECT_TRUE(engine.ok());
    engine_ = std::move(*engine);
  }
  ~LocalEngineTest() override {
    engine_.reset();
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  std::string dir_;
  std::unique_ptr<LocalEngine> engine_;
};

TEST_F(LocalEngineTest, GetRangeReadsOnlyTheRequestedWindow) {
  std::string value(4096, '\0');
  for (size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<char>('a' + i % 26);
  }
  ASSERT_TRUE(engine_->Put("big", value).ok());
  auto window = engine_->GetRange("big", 1000, 64);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(*window, value.substr(1000, 64));
  // The native pread path reads exactly the window, not the whole value.
  const uint64_t before = engine_->counters().bytes_read.load();
  ASSERT_TRUE(engine_->GetRange("big", 0, 16).ok());
  EXPECT_EQ(engine_->counters().bytes_read.load() - before, 16u);
}

TEST_F(LocalEngineTest, MultiGetMixesHitsAndMisses) {
  ASSERT_TRUE(engine_->Put("a", "1").ok());
  ASSERT_TRUE(engine_->Put("c", "3").ok());
  // More keys than the sequential cutover so the IoExecutor path runs too.
  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i) {
    keys.push_back(i % 3 == 0 ? "a" : (i % 3 == 1 ? "b" : "c"));
  }
  auto results = engine_->MultiGet(keys);
  ASSERT_EQ(results.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] == "b") {
      EXPECT_TRUE(results[i].status().IsNotFound()) << i;
    } else {
      ASSERT_TRUE(results[i].ok()) << i;
      EXPECT_EQ(*results[i], keys[i] == "a" ? "1" : "3");
    }
  }
}

TEST_F(LocalEngineTest, BatchPutRoundTrips) {
  std::vector<WriteOp> ops;
  for (int i = 0; i < 32; ++i) {
    ops.push_back(WriteOp{"key" + std::to_string(i), std::string(100, 'a' + i % 26)});
  }
  std::vector<WriteOp> copy = ops;  // BatchPut may move the ops out.
  ASSERT_TRUE(engine_->BatchPut(copy).ok());
  for (const WriteOp& op : ops) {
    auto value = engine_->Get(op.key);
    ASSERT_TRUE(value.ok()) << op.key;
    EXPECT_EQ(*value, op.value);
  }
}

TEST_F(LocalEngineTest, InjectedFailureFailsOnlyThatOp) {
  engine_->SetWriteFailureInjector([](std::string_view key) {
    return key == "bad" ? Status::Unavailable("injected") : Status::Ok();
  });
  std::vector<WriteOp> ops{{"good1", "v"}, {"bad", "v"}, {"good2", "v"}};
  const Status status = engine_->BatchPut(ops);
  EXPECT_TRUE(status.IsUnavailable());
  // Non-atomic batch semantics (BatchWriteItem): the other ops landed.
  EXPECT_TRUE(engine_->Get("good1").ok());
  EXPECT_TRUE(engine_->Get("good2").ok());
  EXPECT_TRUE(engine_->Get("bad").status().IsNotFound());
  engine_->SetWriteFailureInjector(nullptr);
  EXPECT_TRUE(engine_->Put("bad", "v").ok());
}

// The §3.3 commit barrier over the durable engine, with the failure injected
// BELOW AFT (at the storage write) and the aftermath checked ON DISK: a
// partially flushed transaction must leave no commit record — not in the
// running engine, and not after a crash-equivalent reopen. The versions that
// did land survive recovery as orphans for the fault manager's sweep.
TEST_F(LocalEngineTest, PartialFlushFailureWritesNoCommitRecordEvenAfterReopen) {
  engine_->SetWriteFailureInjector([](std::string_view key) {
    return key.find("/k3/") != std::string_view::npos
               ? Status::Unavailable("injected write failure")
               : Status::Ok();
  });

  RealClock& clock = RealClock::Default();
  const std::vector<std::string> keys = {"k0", "k1", "k2", "k3", "k4", "k5"};
  {
    AftNode node("n0", *engine_, clock);
    ASSERT_TRUE(node.Start().ok());
    auto txid = node.StartTransaction();
    ASSERT_TRUE(txid.ok());
    for (const std::string& key : keys) {
      ASSERT_TRUE(node.Put(*txid, key, "payload-" + key).ok());
    }
    const auto committed = node.CommitTransaction(*txid);
    ASSERT_FALSE(committed.ok());
    EXPECT_TRUE(committed.status().IsUnavailable());

    // Barrier holds in the running engine: no commit record, five orphans.
    auto commit_keys = engine_->List(kCommitPrefix);
    ASSERT_TRUE(commit_keys.ok());
    EXPECT_TRUE(commit_keys->empty());
    auto version_keys = engine_->List(kVersionPrefix);
    ASSERT_TRUE(version_keys.ok());
    EXPECT_EQ(version_keys->size(), keys.size() - 1);

    // No partial reads: a fresh node over the same store sees nothing.
    AftNode fresh("n1", *engine_, clock);
    ASSERT_TRUE(fresh.Start().ok());
    auto reader = fresh.StartTransaction();
    ASSERT_TRUE(reader.ok());
    for (const std::string& key : keys) {
      auto read = fresh.Get(*reader, key);
      ASSERT_TRUE(read.ok()) << key;
      EXPECT_FALSE(read->has_value()) << "partial commit visible at " << key;
    }
  }

  // Crash-equivalent reopen: replay the WAL from disk. The durable state
  // must agree — no commit record ever reached the log.
  engine_.reset();
  auto reopened = LocalEngine::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  auto commit_keys = (*reopened)->List(kCommitPrefix);
  ASSERT_TRUE(commit_keys.ok());
  EXPECT_TRUE(commit_keys->empty());
  auto version_keys = (*reopened)->List(kVersionPrefix);
  ASSERT_TRUE(version_keys.ok());
  EXPECT_EQ(version_keys->size(), keys.size() - 1);
}

}  // namespace
}  // namespace aft
