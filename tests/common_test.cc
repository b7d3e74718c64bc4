// Unit tests for src/common.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/crc32.h"
#include "src/common/latency.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/common/uuid.h"
#include "src/common/zipf.h"

namespace aft {
namespace {

// ---- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsCarryCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing key");

  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, ValueAndStatusRoundTrip) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = Status::Timeout("slow");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(ResultTest, MacrosPropagateErrors) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) {
      return Status::InvalidArgument("nope");
    }
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    AFT_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 8);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kInvalidArgument);
}

// ---- Clocks -------------------------------------------------------------------

TEST(SimClockTest, SingleThreadSleepAdvancesInstantly) {
  SimClock clock;
  const TimePoint before = clock.Now();
  clock.SleepFor(Millis(250));
  EXPECT_EQ(clock.Now() - before, Millis(250));
}

TEST(SimClockTest, AdvanceWakesSleepers) {
  SimClock clock;
  clock.set_auto_advance(false);
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepFor(Millis(100));
    woke.store(true);
  });
  // Give the sleeper time to block; it cannot advance on its own.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  clock.Advance(Millis(100));
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(SimClockTest, WallTimeIsMonotonicAcrossTies) {
  SimClock clock;
  int64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const int64_t now = clock.WallTimeMicros();
    EXPECT_GT(now, last);
    last = now;
  }
}

TEST(SimClockTest, MultipleSleepersWakeInOrder) {
  SimClock clock;
  std::atomic<int> wake_count{0};
  std::vector<std::thread> sleepers;
  for (int i = 1; i <= 3; ++i) {
    sleepers.emplace_back([&clock, &wake_count, i] {
      clock.SleepFor(Millis(10 * i));
      wake_count.fetch_add(1);
    });
  }
  for (auto& t : sleepers) {
    t.join();
  }
  EXPECT_EQ(wake_count.load(), 3);
  EXPECT_GE(clock.Now(), TimePoint(Millis(30)));
}

TEST(RealClockTest, ScaledSleepIsShorterInWallTime) {
  RealClock clock(0.05);  // 20x faster than real time.
  const auto wall_start = std::chrono::steady_clock::now();
  clock.SleepFor(Millis(100));  // Should take ~5ms of wall time.
  const auto wall_elapsed = std::chrono::steady_clock::now() - wall_start;
  EXPECT_LT(wall_elapsed, std::chrono::milliseconds(60));
  // And simulated time advanced by at least the requested amount.
  EXPECT_GE(clock.Now(), TimePoint(Millis(90)));
}

// ---- UUIDs --------------------------------------------------------------------

TEST(UuidTest, RandomUuidsAreUniqueAndRoundTrip) {
  Rng rng(1);
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    const Uuid u = Uuid::Random(rng);
    EXPECT_FALSE(u.IsNil());
    const std::string text = u.ToString();
    EXPECT_EQ(text.size(), 36u);
    EXPECT_EQ(Uuid::Parse(text), u);
    seen.insert(text);
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(UuidTest, OrderingIsLexicographicOnHiLo) {
  EXPECT_LT(Uuid(1, 2), Uuid(1, 3));
  EXPECT_LT(Uuid(1, 99), Uuid(2, 0));
  EXPECT_EQ(Uuid(5, 5), Uuid(5, 5));
}

TEST(UuidTest, ParseRejectsGarbage) {
  EXPECT_TRUE(Uuid::Parse("not-a-uuid").IsNil());
  EXPECT_TRUE(Uuid::Parse("").IsNil());
}

// ---- RNG / Zipf ----------------------------------------------------------------

TEST(RngTest, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, NextDoubleIsInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(ZipfTest, UniformWhenThetaZero) {
  Rng rng(11);
  ZipfSampler zipf(10, 0.0);
  std::map<uint64_t, int> counts;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  for (const auto& [rank, count] : counts) {
    EXPECT_NEAR(count, kSamples / 10.0, kSamples * 0.01);
  }
}

// The head of the distribution must dominate more as theta grows.
TEST(ZipfTest, SkewIncreasesWithTheta) {
  Rng rng(13);
  auto head_mass = [&](double theta) {
    ZipfSampler zipf(1000, theta);
    int head = 0;
    constexpr int kSamples = 20000;
    for (int i = 0; i < kSamples; ++i) {
      if (zipf.Sample(rng) == 0) {
        ++head;
      }
    }
    return static_cast<double>(head) / kSamples;
  };
  const double h10 = head_mass(1.0);
  const double h15 = head_mass(1.5);
  const double h20 = head_mass(2.0);
  EXPECT_LT(h10, h15);
  EXPECT_LT(h15, h20);
  EXPECT_GT(h20, 0.5);  // Zipf 2.0 over 1000 keys: rank 0 has >50% of mass.
}

TEST(ZipfTest, SamplesAlwaysInRange) {
  Rng rng(17);
  for (double theta : {0.0, 0.5, 0.99, 1.0, 1.5, 2.0}) {
    ZipfSampler zipf(37, theta);
    for (int i = 0; i < 5000; ++i) {
      EXPECT_LT(zipf.Sample(rng), 37u) << "theta=" << theta;
    }
  }
}

TEST(ZipfTest, MatchesAnalyticHeadProbability) {
  // P(rank 0) = 1 / (1^t + ... + n^-t * ...) — compute the harmonic sum.
  const double theta = 1.0;
  const uint64_t n = 100;
  double z = 0;
  for (uint64_t k = 1; k <= n; ++k) {
    z += 1.0 / std::pow(static_cast<double>(k), theta);
  }
  Rng rng(19);
  ZipfSampler zipf(n, theta);
  int head = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Sample(rng) == 0) {
      ++head;
    }
  }
  EXPECT_NEAR(static_cast<double>(head) / kSamples, 1.0 / z, 0.01);
}

// ---- Latency models -------------------------------------------------------------

TEST(LatencyModelTest, ZeroModelCostsNothing) {
  Rng rng(1);
  EXPECT_EQ(LatencyModel::Zero().Sample(rng), Duration::zero());
}

// Exact nearest-rank q-quantile of `samples`.
double SortedQuantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const size_t rank =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size()))));
  return samples[rank - 1];
}

TEST(LatencyModelTest, MedianRoughlyMatches) {
  Rng rng(23);
  LatencyModel model(10.0, 0.5);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(ToMillis(model.Sample(rng)));
  }
  EXPECT_NEAR(SortedQuantile(samples, 0.50), 10.0, 0.5);
  // Lognormal: p99 well above median.
  EXPECT_GT(SortedQuantile(samples, 0.99), 20.0);
}

TEST(LatencyModelTest, FloorIsRespected) {
  Rng rng(29);
  LatencyModel model(1.0, 1.5, /*floor_ms=*/0.8);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(ToMillis(model.Sample(rng)), 0.8);
  }
}

TEST(LatencyModelTest, PerKbCostScalesWithPayload) {
  Rng rng(31);
  LatencyModel model(5.0, 0.0, 0.0, /*per_kb_ms=*/1.0);
  const double small = ToMillis(model.Sample(rng, 1024));
  const double large = ToMillis(model.Sample(rng, 10 * 1024));
  EXPECT_NEAR(large - small, 9.0, 0.01);
}

// ---- Serde ----------------------------------------------------------------------

TEST(SerdeTest, RoundTripAllTypes) {
  BinaryWriter w;
  w.PutU8(0xAB);
  w.PutU32(123456);
  w.PutU64(0xDEADBEEFCAFEBABEULL);
  w.PutI64(-42);
  w.PutString("hello");
  w.PutStringVector({"a", "", "long string with spaces"});
  const std::string bytes = std::move(w).TakeData();

  BinaryReader r(bytes);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  std::string s;
  std::vector<std::string> v;
  ASSERT_TRUE(r.GetU8(&u8));
  ASSERT_TRUE(r.GetU32(&u32));
  ASSERT_TRUE(r.GetU64(&u64));
  ASSERT_TRUE(r.GetI64(&i64));
  ASSERT_TRUE(r.GetString(&s));
  ASSERT_TRUE(r.GetStringVector(&v));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(v, (std::vector<std::string>{"a", "", "long string with spaces"}));
}

TEST(SerdeTest, TruncatedInputFailsCleanly) {
  BinaryWriter w;
  w.PutString("hello world");
  std::string bytes = std::move(w).TakeData();
  bytes.resize(bytes.size() - 3);
  BinaryReader r(bytes);
  std::string s;
  EXPECT_FALSE(r.GetString(&s));
}

TEST(SerdeTest, EmptyVectorRoundTrip) {
  BinaryWriter w;
  w.PutStringVector({});
  BinaryReader r(w.data());
  std::vector<std::string> v{"sentinel"};
  ASSERT_TRUE(r.GetStringVector(&v));
  EXPECT_TRUE(v.empty());
}

// ---- Stats ---------------------------------------------------------------------

TEST(StatsTest, TimelineBucketsEvents) {
  SimClock clock;
  ThroughputTimeline timeline(clock, Millis(1000));
  timeline.Start();
  timeline.RecordEvent();
  timeline.RecordEvent();
  clock.Advance(Millis(1500));
  timeline.RecordEvent();
  const auto rows = timeline.Report();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].events_per_sec, 2.0);
  EXPECT_DOUBLE_EQ(rows[1].events_per_sec, 1.0);
  EXPECT_EQ(timeline.total(), 3u);
}

TEST(StatsTest, MergedReportStartsAtFirstEventAndWidensThinWindows) {
  SimClock clock;
  ThroughputTimeline timeline(clock, Millis(100));
  timeline.Start();
  // Windows 0-1 stay empty; then 3, 1, 2, 0 and 2 events.
  clock.Advance(Millis(250));
  for (const int events : {3, 1, 2, 0, 2}) {
    for (int e = 0; e < events; ++e) {
      timeline.RecordEvent();
    }
    clock.Advance(Millis(100));
  }
  // Enough events for one per row: the windows stay, from the first event on.
  auto rows = timeline.ReportMerged(1);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_DOUBLE_EQ(rows[0].window_start_sec, 0.2);
  EXPECT_DOUBLE_EQ(rows[0].events_per_sec, 30.0);
  EXPECT_DOUBLE_EQ(rows[3].events_per_sec, 0.0);
  // Three per row: 2 windows a row gives 3 rows for 8 events, too thin; 3
  // windows a row gives 2.
  rows = timeline.ReportMerged(3);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].window_start_sec, 0.2);
  EXPECT_NEAR(rows[0].events_per_sec, 20.0, 1e-9);  // 6 events in 0.3 s.
  EXPECT_DOUBLE_EQ(rows[1].window_start_sec, 0.5);
  EXPECT_NEAR(rows[1].events_per_sec, 10.0, 1e-9);  // 2 events in 0.2 s.
  // Report() keeps every window from the start.
  EXPECT_EQ(timeline.Report().size(), 7u);
}

// ---- ThreadPool -----------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Submit([&count] { count.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, WaitReturnsWhenIdle) {
  ThreadPool pool(2);
  pool.Wait();  // No tasks: returns immediately.
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran.store(true); });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

// ---- CRC-32 ------------------------------------------------------------------

// The bytewise definition of CRC-32 (reflected 0xEDB88320, one table lookup
// per byte): the oracle the slicing-by-8 kernel must match on every input.
uint32_t BytewiseCrc32Feed(uint32_t state, std::string_view data) {
  static const auto kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      table[i] = crc;
    }
    return table;
  }();
  for (const char c : data) {
    state = (state >> 8) ^ kTable[(state ^ static_cast<uint8_t>(c)) & 0xFFu];
  }
  return state;
}

uint32_t BytewiseCrc32(std::string_view data) {
  return BytewiseCrc32Feed(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

// Seeded pseudo-random bytes from a test-local LCG, so pinned values do not
// depend on any generator in src/.
std::string PseudoRandomBytes(size_t n, uint64_t seed) {
  std::string out(n, '\0');
  uint64_t x = seed;
  for (char& c : out) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<char>(x >> 56);
  }
  return out;
}

// FrameTest.Crc32MatchesKnownVector (net_test) holds "123456789" and "".
TEST(Crc32Test, KnownVector) {
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

// Every length 0-300 at every start offset 0-7: covers the 8-byte step, the
// bytewise tail and unaligned loads.
TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndAlignment) {
  const std::string buffer = PseudoRandomBytes(300 + 8, 11);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const std::string_view data(buffer.data() + offset, len);
      ASSERT_EQ(Crc32(data), BytewiseCrc32(data)) << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32Test, FeedSplitAtEveryOffsetEqualsOneShot) {
  const std::string buffer = PseudoRandomBytes(1024, 12);
  const uint32_t one_shot = Crc32(buffer);
  ASSERT_EQ(one_shot, BytewiseCrc32(buffer));
  for (size_t split = 0; split <= buffer.size(); ++split) {
    uint32_t state = Crc32Begin();
    state = Crc32Feed(state, buffer.data(), split);
    state = Crc32Feed(state, buffer.data() + split, buffer.size() - split);
    ASSERT_EQ(Crc32End(state), one_shot) << "split at " << split;
  }
}

// The value the bytewise kernel computed for 1 MiB of seeded bytes, one-shot
// and streamed in 4099-byte pieces (a segment chain whose spans end mid-step).
TEST(Crc32Test, OneMebibyteIsPinned) {
  const std::string buffer = PseudoRandomBytes(1 << 20, 13);
  EXPECT_EQ(Crc32(buffer), 0x80EF1813u);
  uint32_t state = Crc32Begin();
  for (size_t at = 0; at < buffer.size(); at += 4099) {
    state = Crc32Feed(state, buffer.data() + at, std::min<size_t>(4099, buffer.size() - at));
  }
  EXPECT_EQ(Crc32End(state), 0x80EF1813u);
}

}  // namespace
}  // namespace aft
