// Latency attribution (aft_commit_stage_seconds) and the sampled contention
// profiler (src/common/contention.h).
//
// The load-bearing guarantees under test:
//   * Reconciliation — the per-stage commit decomposition is a set of
//     DISJOINT, nested slices of the end-to-end commit, so across any run
//     the stage sums total at most the aft_node_commit_latency_ms sum.
//     Holds for concurrent inline-record commits on a simulated engine, for
//     the durable LocalEngine's fused and unit-by-unit commits, and with
//     spills still in flight at commit.
//   * Coverage — every committed transaction observes every stage exactly
//     once.
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

// One histogram read as a delta from construction. The metrics registry is
// process-global, so a rerun of a test in one process (--gtest_repeat)
// finds the earlier run's observations under the same node id.
class HistogramDelta {
 public:
  explicit HistogramDelta(obs::Histogram* histogram)
      : histogram_(histogram), count0_(histogram->Count()), sum0_(histogram->Sum()) {}
  uint64_t Count() const { return histogram_->Count() - count0_; }
  double Sum() const { return histogram_->Sum() - sum0_; }

 private:
  obs::Histogram* histogram_;
  uint64_t count0_;
  double sum0_;
};

// A node's end-to-end commit histogram and its 5 commit stages, as deltas
// from construction; construct it before the node commits anything.
struct CommitDeltas {
  explicit CommitDeltas(const std::string& node_id)
      : stages(CommitStageHistograms::ForNode(node_id)),
        e2e(obs::MetricsRegistry::Global().GetHistogram(
            "aft_node_commit_latency_ms", "CommitTransaction wall latency (ms)",
            DefaultLatencyBoundariesMs(), {{"node", node_id}})),
        txn_lock_wait(stages.txn_lock_wait),
        data_flush(stages.data_flush),
        barrier(stages.barrier),
        record_write(stages.record_write),
        gossip_publish(stages.gossip_publish) {}

  CommitStageHistograms stages;
  HistogramDelta e2e;
  HistogramDelta txn_lock_wait;
  HistogramDelta data_flush;
  HistogramDelta barrier;
  HistogramDelta record_write;
  HistogramDelta gossip_publish;
};

// The reconciliation contract (docs/OBSERVABILITY.md "Latency attribution"):
// per-commit stages are disjoint slices of the commit_latency_ms window, so
// their sums cannot exceed the end-to-end sum. 5% + 2ms of slack absorbs
// float accumulation and the ms→s unit hop, NOT any structural overlap.
void CheckReconciliation(const CommitDeltas& d, uint64_t committed) {
  ASSERT_EQ(d.e2e.Count(), committed);

  // Coverage: one observation per committed transaction per stage.
  EXPECT_EQ(d.txn_lock_wait.Count(), committed);
  EXPECT_EQ(d.data_flush.Count(), committed);
  EXPECT_EQ(d.barrier.Count(), committed);
  EXPECT_EQ(d.record_write.Count(), committed);
  EXPECT_EQ(d.gossip_publish.Count(), committed);

  const double stage_sum_s = d.txn_lock_wait.Sum() + d.data_flush.Sum() + d.barrier.Sum() +
                             d.record_write.Sum() + d.gossip_publish.Sum();
  const double e2e_sum_s = d.e2e.Sum() * 1e-3;
  EXPECT_GT(stage_sum_s, 0.0);
  EXPECT_LE(stage_sum_s, e2e_sum_s * 1.05 + 2e-3)
      << "stage sum " << stage_sum_s << "s vs e2e " << e2e_sum_s << "s";
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
  const CommitDeltas deltas("attr-early-writes");
  AftNode node("attr-early-writes", engine, clock, node_options);
  ASSERT_TRUE(node.Start().ok());
  const uint64_t committed = RunCommits(node, /*threads=*/2, /*txns_per_thread=*/10);
  node.Kill();
  ASSERT_GT(committed, 0u);
  EXPECT_EQ(node.stats().spills.load(), committed);
  CheckReconciliation(deltas, committed);
  EXPECT_GE(deltas.barrier.Sum(), static_cast<double>(committed) * 2e-3)
      << "the wait for in-flight early writes is not in the barrier stage";
}

// On a simulated engine the payloads ride inside the record object: one
// write, so there is no barrier, the data round is (close to) zero and
// the record write carries the commit's storage time. Eight threads commit
// at once; a lone committer takes the same path.
TEST(LatencyAttribution, ReconcilesInlineRecords) {
  RealClock clock(1.0);
  SimDynamoOptions options = InstantDynamoOptions();
  options.profile.put = LatencyModel(5.0, 0.0);
  SimDynamo engine(clock, options);
  const CommitDeltas deltas("attr-inline");
  AftNode node("attr-inline", engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());
  const uint64_t committed = RunCommits(node, /*threads=*/8, /*txns_per_thread=*/10);
  node.Kill();
  ASSERT_GT(committed, 0u);
  EXPECT_EQ(node.stats().spills.load(), 0u);
  CheckReconciliation(deltas, committed);
  EXPECT_EQ(deltas.barrier.Sum(), 0.0);
  EXPECT_GE(deltas.record_write.Sum(), static_cast<double>(committed) * 4e-3);
  EXPECT_LT(deltas.data_flush.Sum(), 0.1 * deltas.record_write.Sum());
}

// The durable engine's two commit paths, each on its own node. With no
// spill a commit's data and record ride one fused WAL append. With every
// Put spilled, commits carry an after_data_write hook and run through the
// default Commit, unit by unit; its stages must reconcile too.
TEST(LatencyAttribution, ReconcilesLocalEngine) {
  for (const bool spill : {false, true}) {
    SCOPED_TRACE(spill ? "every Put spills" : "no spill");
    TempDir dir;
    RealClock clock(0.002);
    auto engine = LocalEngine::Open(dir.path());
    ASSERT_TRUE(engine.ok());
    AftNodeOptions node_options = FastNodeOptions();
    if (spill) {
      node_options.spill_threshold_bytes = 1;
    }
    const std::string id = spill ? "attr-local-unit-by-unit" : "attr-local-fused";
    const CommitDeltas deltas(id);
    AftNode node(id, **engine, clock, node_options);
    ASSERT_TRUE(node.Start().ok());
    const uint64_t committed = RunCommits(node, /*threads=*/8, /*txns_per_thread=*/15);
    node.Kill();
    ASSERT_GT(committed, 0u);
    if (spill) {
      EXPECT_GT(node.stats().spills.load(), 0u);
    } else {
      EXPECT_EQ(node.stats().spills.load(), 0u);
    }
    CheckReconciliation(deltas, committed);
  }
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
