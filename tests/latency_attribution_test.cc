// Latency attribution (aft_commit_stage_seconds) and the sampled contention
// profiler (src/common/contention.h).
//
// The load-bearing guarantees under test:
//   * Reconciliation — the per-stage commit decomposition is a set of
//     DISJOINT, nested slices of the end-to-end commit, so across any run
//     the stage sums total at most the aft_node_commit_latency_ms sum.
//     Holds on the solo fast path, under concurrent non-merging rounds
//     (the simulated-cloud engine), under merged rounds (the durable
//     LocalEngine), with spills still in flight at commit on both, and for
//     inline records.
//   * Coverage — every committed transaction observes every per-commit
//     stage exactly once, with exactly one queue_wait_{leader,follower}
//     by batch role (always leader where the engine's rounds do not merge).
//   * Exactness — a thread that demonstrably blocked ~N ms on a named,
//     fully-sampled Mutex shows ≥ ~N ms of wait at its site; with sampling
//     off the same contention records nothing.
//   * Queue profiling — a named IoExecutor attributes queue wait and run
//     time to its "<name>.queue" / "<name>.run" sites.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/common/contention.h"
#include "src/common/histogram.h"
#include "src/common/io_executor.h"
#include "src/common/mutex.h"
#include "src/core/aft_node.h"
#include "src/core/commit_batcher.h"
#include "src/obs/metrics.h"
#include "src/storage/local_engine.h"
#include "src/storage/sim_dynamo.h"

namespace aft {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/aft_attr_XXXXXX";
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

// Zero-latency engine profile: attribution math, not simulated round trips.
SimDynamoOptions InstantDynamoOptions() {
  SimDynamoOptions options;
  options.profile = EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero()};
  options.staleness = StalenessModel{};
  options.txn_call = LatencyModel::Zero();
  return options;
}

AftNodeOptions FastNodeOptions() {
  AftNodeOptions options;
  options.service_cores = 0;
  return options;
}

// Restores the global contention sampling rate (tests share a process).
class ScopedSampleRate {
 public:
  explicit ScopedSampleRate(uint32_t every_n) : saved_(contention::SampleEveryN()) {
    contention::SetSampleEveryN(every_n);
  }
  ~ScopedSampleRate() { contention::SetSampleEveryN(saved_); }

 private:
  uint32_t saved_;
};

contention::SiteSnapshot FindSite(const std::string& name) {
  for (const auto& site : contention::ContentionRegistry::Global().Snapshot()) {
    if (site.name == name) {
      return site;
    }
  }
  return contention::SiteSnapshot{};
}

// Drives `txns` single-key commits through `node` across `threads` threads
// and returns how many committed.
uint64_t RunCommits(AftNode& node, int threads, int txns_per_thread) {
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&node, &committed, t, txns_per_thread] {
      for (int i = 0; i < txns_per_thread; ++i) {
        auto txid = node.StartTransaction();
        if (!txid.ok()) {
          continue;
        }
        const std::string tag = std::to_string(t) + "-" + std::to_string(i);
        if (!node.Put(*txid, "k" + std::to_string(i % 4), "v" + tag).ok()) {
          continue;
        }
        if (node.CommitTransaction(*txid).ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  return committed.load();
}

// The reconciliation contract (docs/OBSERVABILITY.md "Latency attribution"):
// per-commit stages are disjoint slices of the commit_latency_ms window, so
// their sums cannot exceed the end-to-end sum. 5% + 2ms of slack absorbs
// float accumulation and the ms→s unit hop, NOT any structural overlap.
void CheckReconciliation(const std::string& node_id, uint64_t committed, bool merging) {
  auto& reg = obs::MetricsRegistry::Global();
  CommitStageHistograms stages = CommitStageHistograms::ForNode(node_id);
  obs::Histogram* e2e =
      reg.GetHistogram("aft_node_commit_latency_ms", "CommitTransaction wall latency (ms)",
                       DefaultLatencyBoundariesMs(), {{"node", node_id}});
  ASSERT_EQ(e2e->Count(), committed);

  // Coverage: one observation per committed transaction per per-commit stage.
  EXPECT_EQ(stages.txn_lock_wait->Count(), committed);
  EXPECT_EQ(stages.data_flush->Count(), committed);
  EXPECT_EQ(stages.barrier->Count(), committed);
  EXPECT_EQ(stages.record_write->Count(), committed);
  EXPECT_EQ(stages.gossip_publish->Count(), committed);
  EXPECT_EQ(stages.queue_wait_leader->Count() + stages.queue_wait_follower->Count(), committed);
  EXPECT_GE(stages.queue_wait_leader->Count(), 1u);
  if (!merging) {
    // Every commit ran its own round: no followers, no wait.
    EXPECT_EQ(stages.queue_wait_follower->Count(), 0u);
    EXPECT_EQ(stages.queue_wait_leader->Sum(), 0.0);
  }

  const double stage_sum_s = stages.txn_lock_wait->Sum() + stages.queue_wait_leader->Sum() +
                             stages.queue_wait_follower->Sum() + stages.data_flush->Sum() +
                             stages.barrier->Sum() + stages.record_write->Sum() +
                             stages.gossip_publish->Sum();
  const double e2e_sum_s = e2e->Sum() * 1e-3;
  EXPECT_GT(stage_sum_s, 0.0);
  EXPECT_LE(stage_sum_s, e2e_sum_s * 1.05 + 2e-3)
      << "stage sum " << stage_sum_s << "s vs e2e " << e2e_sum_s << "s";
}

TEST(LatencyAttribution, ReconcilesSoloSimEngine) {
  RealClock clock(0.002);
  SimDynamo engine(clock, InstantDynamoOptions());
  AftNode node("attr-sim-solo", engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());
  const uint64_t committed = RunCommits(node, /*threads=*/1, /*txns_per_thread=*/25);
  node.Kill();
  ASSERT_GT(committed, 0u);
  CheckReconciliation("attr-sim-solo", committed, /*merging=*/false);
}

TEST(LatencyAttribution, ReconcilesUnbatchedSimEngine) {
  RealClock clock(0.002);
  SimDynamo engine(clock, InstantDynamoOptions());  // A simulated engine: rounds never merge.
  AftNode node("attr-sim-unmerged", engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());
  const uint64_t committed = RunCommits(node, /*threads=*/8, /*txns_per_thread=*/25);
  node.Kill();
  ASSERT_GT(committed, 0u);
  CheckReconciliation("attr-sim-unmerged", committed, /*merging=*/false);
}

// Every Put spills past the threshold, so each transaction's version write
// is still in flight when the commit begins (a ~4 ms batch call, then an
// immediate commit). The commit's wait for it must land in the barrier
// stage, and the stages must still reconcile.
TEST(LatencyAttribution, ReconcilesInFlightEarlyWrites) {
  RealClock clock(1.0);
  SimDynamoOptions options = InstantDynamoOptions();
  options.profile.batch_base = LatencyModel(4.0, 0.0);
  SimDynamo engine(clock, options);
  AftNodeOptions node_options = FastNodeOptions();
  node_options.spill_threshold_bytes = 1;
  AftNode node("attr-early-writes", engine, clock, node_options);
  ASSERT_TRUE(node.Start().ok());
  const uint64_t committed = RunCommits(node, /*threads=*/2, /*txns_per_thread=*/10);
  node.Kill();
  ASSERT_GT(committed, 0u);
  EXPECT_EQ(node.stats().spills.load(), committed);
  CheckReconciliation("attr-early-writes", committed, /*merging=*/false);
  const CommitStageHistograms stages = CommitStageHistograms::ForNode("attr-early-writes");
  EXPECT_GE(stages.barrier->Sum(), static_cast<double>(committed) * 2e-3)
      << "the wait for in-flight early writes is not in the barrier stage";
}

// On a simulated engine the payloads ride inside the record object: one
// write, so there is no barrier, the data round is (close to) zero and
// the record write carries the commit's storage time.
TEST(LatencyAttribution, ReconcilesInlineRecords) {
  RealClock clock(1.0);
  SimDynamoOptions options = InstantDynamoOptions();
  options.profile.put = LatencyModel(5.0, 0.0);
  SimDynamo engine(clock, options);
  AftNode node("attr-inline", engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());
  const uint64_t committed = RunCommits(node, /*threads=*/2, /*txns_per_thread=*/10);
  node.Kill();
  ASSERT_GT(committed, 0u);
  EXPECT_EQ(node.stats().spills.load(), 0u);
  CheckReconciliation("attr-inline", committed, /*merging=*/false);
  const CommitStageHistograms stages = CommitStageHistograms::ForNode("attr-inline");
  EXPECT_EQ(stages.barrier->Sum(), 0.0);
  EXPECT_GE(stages.record_write->Sum(), static_cast<double>(committed) * 4e-3);
  EXPECT_LT(stages.data_flush->Sum(), 0.1 * stages.record_write->Sum());
}

TEST(LatencyAttribution, ReconcilesBatchedLocalEngine) {
  TempDir dir;
  RealClock clock(0.002);
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());
  AftNode node("attr-local-batched", **engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());
  const uint64_t committed = RunCommits(node, /*threads=*/8, /*txns_per_thread=*/15);
  node.Kill();
  ASSERT_GT(committed, 0u);
  CheckReconciliation("attr-local-batched", committed, /*merging=*/true);
}

// Spills in flight give every commit an after_data_write hook, so merged
// LocalEngine rounds run their units one after another through the default
// CommitUnits; the stages it sums over the units must still reconcile.
TEST(LatencyAttribution, ReconcilesLocalEngineUnitByUnit) {
  TempDir dir;
  RealClock clock(0.002);
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());
  AftNodeOptions node_options = FastNodeOptions();
  node_options.spill_threshold_bytes = 1;
  AftNode node("attr-local-unit-by-unit", **engine, clock, node_options);
  ASSERT_TRUE(node.Start().ok());
  const uint64_t committed = RunCommits(node, /*threads=*/8, /*txns_per_thread=*/15);
  node.Kill();
  ASSERT_GT(committed, 0u);
  EXPECT_GT(node.stats().spills.load(), 0u);
  CheckReconciliation("attr-local-unit-by-unit", committed, /*merging=*/true);
}

// ---- contention profiler ----------------------------------------------------

TEST(ContentionProfiler, RecordsDemonstrableLockWait) {
  ScopedSampleRate sample(1);  // Every acquisition.
  Mutex mu("test.exact");
  std::atomic<bool> held{false};
  std::thread holder([&mu, &held] {
    MutexLock lock(mu);
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  });
  while (!held.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // This acquisition demonstrably blocks until the holder's sleep ends.
  {
    MutexLock lock(mu);
  }
  holder.join();

  const auto site = FindSite("test.exact");
  EXPECT_EQ(site.kind, contention::SiteKind::kLock);
  EXPECT_GE(site.samples, 1u);
  EXPECT_GE(site.contended, 1u);
  // 40ms of provable blocking, measured within scheduling slop.
  EXPECT_GE(site.total_wait_ns, 25ull * 1000 * 1000);
  EXPECT_GE(site.max_wait_ns, 25ull * 1000 * 1000);
  EXPECT_GE(site.ApproxQuantileNs(0.99), site.ApproxQuantileNs(0.5));
}

TEST(ContentionProfiler, UnsampledRecordsNothing) {
  ScopedSampleRate sample(0);  // Profiler off.
  Mutex mu("test.unsampled");
  std::atomic<bool> held{false};
  std::thread holder([&mu, &held] {
    MutexLock lock(mu);
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  while (!held.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  {
    MutexLock lock(mu);  // Contended — but sampling is off.
  }
  holder.join();

  // The site exists (named construction registers it) but saw no samples.
  const auto site = FindSite("test.unsampled");
  EXPECT_EQ(site.samples, 0u);
  EXPECT_EQ(site.contended, 0u);
  EXPECT_EQ(site.total_wait_ns, 0u);
}

TEST(ContentionProfiler, NamedExecutorProfilesQueueAndRunTime) {
  ScopedSampleRate sample(1);
  {
    IoExecutor executor(2, "attrexec");
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
      // SubmitIfIdle refuses while both helpers are busy; retry until one
      // frees up.
      while (!executor.SubmitIfIdle([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ran.fetch_add(1, std::memory_order_relaxed);
      })) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    // No drain API: wait for the tasks themselves (the pool destructor would
    // drop queued work).
    while (ran.load(std::memory_order_acquire) < 16) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const auto queue_site = FindSite("attrexec.queue");
  const auto run_site = FindSite("attrexec.run");
  EXPECT_EQ(queue_site.kind, contention::SiteKind::kQueue);
  EXPECT_GE(queue_site.samples, 1u);
  EXPECT_GE(run_site.samples, 1u);
  // 16 tasks × ≥2ms run time on 2 threads: run-time attribution must see
  // multiple milliseconds even if the queue never backs up.
  EXPECT_GE(run_site.total_wait_ns, 4ull * 1000 * 1000);
}

}  // namespace
}  // namespace aft
