// Fault-tolerance property tests: crash injection at every point of the
// commit protocol, recovery invariants, orphan collection, and end-to-end
// exactly-once behaviour under randomized failures.

#include <gtest/gtest.h>

#include "src/cluster/deployment.h"
#include "src/storage/sim_dynamo.h"
#include "src/workload/dataset.h"
#include "src/workload/harness.h"
#include "tests/await_storage.h"

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

// Randomized crash-point property: for every transaction, either ALL of its
// writes are visible after recovery or NONE are, and acked commits are
// always visible. Parameterized over RNG seeds.
class CrashRecoveryPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashRecoveryPropertyTest, AckedAllOrNothingAlwaysHolds) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  Rng rng(9000 + GetParam());

  struct Outcome {
    std::string key_a;
    std::string key_b;
    std::string value;
    bool acked = false;
    bool commit_record_persisted = false;
  };
  std::vector<Outcome> outcomes;

  for (int i = 0; i < 40; ++i) {
    // Each iteration: a fresh node (previous one may have crashed) running
    // one 2-key transaction with a randomly armed crash point.
    const int crash_roll = static_cast<int>(rng.Below(4));  // 3 points + no crash.
    AftNodeOptions options;
    options.service_cores = 0;
    options.crash_hook = [crash_roll](CrashPoint point) {
      return static_cast<int>(point) == crash_roll;
    };
    AftNode node("n" + std::to_string(i), storage, clock, options);
    ASSERT_TRUE(node.Start().ok());

    Outcome outcome;
    outcome.key_a = "a" + std::to_string(i);
    outcome.key_b = "b" + std::to_string(i);
    outcome.value = "v" + std::to_string(i);
    auto txid = node.StartTransaction();
    ASSERT_TRUE(txid.ok());
    ASSERT_TRUE(node.Put(*txid, outcome.key_a, outcome.value).ok());
    ASSERT_TRUE(node.Put(*txid, outcome.key_b, outcome.value).ok());
    auto committed = node.CommitTransaction(*txid);
    outcome.acked = committed.ok();
    // Ground truth from storage: did the commit record make it out?
    auto commit_keys = storage.List(kCommitPrefix);
    ASSERT_TRUE(commit_keys.ok());
    outcome.commit_record_persisted = false;
    for (const auto& key : commit_keys.value()) {
      if (TxnIdFromCommitStorageKey(key).uuid == *txid) {
        outcome.commit_record_persisted = true;
        break;
      }
    }
    outcomes.push_back(outcome);
  }

  // Recovery: a brand-new node bootstraps purely from storage.
  AftNodeOptions recovery_options;
  recovery_options.service_cores = 0;
  AftNode recovered("recovery", storage, clock, recovery_options);
  ASSERT_TRUE(recovered.Start().ok());

  for (const Outcome& outcome : outcomes) {
    auto txid = recovered.StartTransaction();
    ASSERT_TRUE(txid.ok());
    auto a = recovered.Get(*txid, outcome.key_a);
    auto b = recovered.Get(*txid, outcome.key_b);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    (void)recovered.AbortTransaction(*txid);

    const bool a_visible = a->has_value();
    const bool b_visible = b->has_value();
    EXPECT_EQ(a_visible, b_visible) << "fractional execution exposed for " << outcome.key_a;
    if (outcome.acked) {
      EXPECT_TRUE(a_visible) << "acked commit lost: " << outcome.key_a;
      EXPECT_EQ(a->value(), outcome.value);
    }
    // Commit record persisted == transaction committed, acked or not (§3.3.1).
    EXPECT_EQ(a_visible, outcome.commit_record_persisted);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryPropertyTest, ::testing::Range(0, 6));

// ---- Orphan collection ------------------------------------------------------------

// The version objects below are spilled at Put (threshold 0): unspilled, a
// payload rides inside the record.
TEST(OrphanSweepTest, OrphanedVersionsAreReapedAfterGrace) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  ClusterOptions options;
  options.num_nodes = 1;
  options.start_background_threads = false;
  options.node_options.spill_threshold_bytes = 0;
  options.fault_manager.orphan_grace = Millis(500);
  // The dying node: crashes after writing data, before the commit record.
  options.node_options.crash_hook = [](CrashPoint point) {
    return point == CrashPoint::kAfterDataWrite;
  };
  ClusterDeployment cluster(storage, clock, options);
  ASSERT_TRUE(cluster.Start().ok());

  auto txid = cluster.node(0)->StartTransaction();
  ASSERT_TRUE(cluster.node(0)->Put(*txid, "torn", "x").ok());
  EXPECT_TRUE(cluster.node(0)->CommitTransaction(*txid).status().IsUnavailable());
  ASSERT_EQ(storage.List(kVersionPrefix)->size(), 1u);

  // First sweep: candidate noted, nothing deleted (grace not elapsed).
  EXPECT_EQ(cluster.fault_manager().RunOrphanSweepOnce(), 0u);
  clock.Advance(Millis(1000));
  // After the grace period the orphan is reaped.
  EXPECT_EQ(cluster.fault_manager().RunOrphanSweepOnce(), 1u);
  EXPECT_TRUE(storage.List(kVersionPrefix)->empty());
  EXPECT_EQ(cluster.fault_manager().stats().orphans_deleted.load(), 1u);
}

// Version objects are the only orphan candidates, so a sweep lists storage
// once.
TEST(OrphanSweepTest, OneSweepListsStorageOnce) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  ClusterOptions options;
  options.num_nodes = 1;
  options.start_background_threads = false;
  options.node_options.spill_threshold_bytes = 0;
  ClusterDeployment cluster(storage, clock, options);
  ASSERT_TRUE(cluster.Start().ok());

  auto txid = cluster.node(0)->StartTransaction();
  ASSERT_TRUE(cluster.node(0)->Put(*txid, "spilled", "x").ok());
  ASSERT_EQ(AwaitObjectCount(storage, kVersionPrefix, 1), 1u);
  const uint64_t lists_before = storage.counters().lists.load();
  EXPECT_EQ(cluster.fault_manager().RunOrphanSweepOnce(), 0u);
  EXPECT_EQ(storage.counters().lists.load() - lists_before, 1u);
}

TEST(OrphanSweepTest, CommittedVersionsAreNeverReaped) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  ClusterOptions options;
  options.num_nodes = 1;
  options.start_background_threads = false;
  options.node_options.spill_threshold_bytes = 0;
  options.fault_manager.orphan_grace = Millis(1);
  ClusterDeployment cluster(storage, clock, options);
  ASSERT_TRUE(cluster.Start().ok());

  auto txid = cluster.node(0)->StartTransaction();
  ASSERT_TRUE(cluster.node(0)->Put(*txid, "safe", "x").ok());
  ASSERT_TRUE(cluster.node(0)->CommitTransaction(*txid).ok());
  cluster.bus().RunOnce();  // Fault manager learns the commit.
  clock.Advance(Millis(100));
  EXPECT_EQ(cluster.fault_manager().RunOrphanSweepOnce(), 0u);
  EXPECT_EQ(storage.List(kVersionPrefix)->size(), 1u);
}

// Unspilled, a commit torn before its record write leaves no object to reap, and a committed payload lives in its record object,
// which the sweep never touches.
TEST(OrphanSweepTest, InlineRecordsLeaveNothingToReap) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  ClusterOptions options;
  options.num_nodes = 1;
  options.start_background_threads = false;
  options.fault_manager.orphan_grace = Millis(1);
  bool crash_armed = true;
  options.node_options.crash_hook = [&crash_armed](CrashPoint point) {
    return crash_armed && point == CrashPoint::kAfterDataWrite;
  };
  ClusterDeployment cluster(storage, clock, options);
  ASSERT_TRUE(cluster.Start().ok());

  auto torn = cluster.node(0)->StartTransaction();
  ASSERT_TRUE(cluster.node(0)->Put(*torn, "torn", "x").ok());
  EXPECT_TRUE(cluster.node(0)->CommitTransaction(*torn).status().IsUnavailable());
  EXPECT_TRUE(storage.List(kVersionPrefix)->empty());
  EXPECT_TRUE(storage.List(kCommitPrefix)->empty());

  crash_armed = false;
  AftNodeOptions uncached;
  uncached.data_cache_bytes = 0;
  uncached.service_cores = 0;
  AftNode writer("writer", storage, clock, uncached);
  ASSERT_TRUE(writer.Start().ok());
  auto txid = writer.StartTransaction();
  ASSERT_TRUE(writer.Put(*txid, "safe", "x").ok());
  ASSERT_TRUE(writer.CommitTransaction(*txid).ok());
  clock.Advance(Millis(100));
  EXPECT_EQ(cluster.fault_manager().RunOrphanSweepOnce(), 0u);
  clock.Advance(Millis(100));
  EXPECT_EQ(cluster.fault_manager().RunOrphanSweepOnce(), 0u);
  EXPECT_EQ(storage.List(kCommitPrefix)->size(), 1u);
  auto reader_txid = writer.StartTransaction();
  EXPECT_EQ(writer.Get(*reader_txid, "safe").value(), std::optional<std::string>("x"));
}

TEST(OrphanSweepTest, UncommittedButRecentVersionsSurviveViaGrace) {
  // A slow transaction's spilled buffer must not be reaped mid-flight.
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  ClusterOptions options;
  options.num_nodes = 1;
  options.start_background_threads = false;
  options.fault_manager.orphan_grace = Millis(10000);
  options.node_options.spill_threshold_bytes = 8;
  ClusterDeployment cluster(storage, clock, options);
  ASSERT_TRUE(cluster.Start().ok());

  auto txid = cluster.node(0)->StartTransaction();
  ASSERT_TRUE(cluster.node(0)->Put(*txid, "slow", "spilled-payload").ok());
  ASSERT_EQ(AwaitObjectCount(storage, kVersionPrefix, 1), 1u);  // Written pre-commit.
  EXPECT_EQ(cluster.fault_manager().RunOrphanSweepOnce(), 0u);
  clock.Advance(Millis(100));
  EXPECT_EQ(cluster.fault_manager().RunOrphanSweepOnce(), 0u);
  // The transaction eventually commits; its data must still be there.
  ASSERT_TRUE(cluster.node(0)->CommitTransaction(*txid).ok());
  auto reader = cluster.node(0)->StartTransaction();
  EXPECT_EQ(cluster.node(0)->Get(*reader, "slow")->value(), "spilled-payload");
}

// ---- Liveness scan -----------------------------------------------------------------

// A fresh fault manager has seen none of the records the dataset loader
// wrote, but every node bootstrapped them: the scan applies them and counts
// no missed commit. A record that reached storage while no node heard of it
// (its writer died before gossip) counts once, and becomes readable.
TEST(LivenessScanTest, OnlyRecordsSomeLiveNodeLackedCountAsMissed) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  WorkloadSpec spec;
  spec.num_keys = 50;
  spec.value_bytes = 16;
  ASSERT_TRUE(LoadAftDataset(storage, spec).ok());
  ClusterOptions options;
  options.num_nodes = 2;
  options.start_background_threads = false;
  ClusterDeployment cluster(storage, clock, options);
  ASSERT_TRUE(cluster.Start().ok());
  clock.Advance(std::chrono::seconds(5));  // Past the liveness grace.

  FaultManager& fm = cluster.fault_manager();
  EXPECT_EQ(fm.RunLivenessScanOnce(), 50u);  // New to the fault manager...
  EXPECT_EQ(fm.stats().missed_commits_recovered.load(), 0u);  // ...but to no node.

  Rng rng(7);
  const TxnId writer(1, Uuid::Random(rng));
  const std::vector<std::string> write_set{"lost"};
  ASSERT_TRUE(storage
                  .Put(VersionStorageKey("lost", writer.uuid),
                       VersionedValue{writer, write_set, "acked"}.Serialize())
                  .ok());
  ASSERT_TRUE(storage.Put(CommitStorageKey(writer), CommitRecord{writer, write_set}.Serialize())
                  .ok());
  EXPECT_EQ(fm.RunLivenessScanOnce(), 1u);
  EXPECT_EQ(fm.stats().missed_commits_recovered.load(), 1u);

  auto txid = cluster.node(1)->StartTransaction();
  ASSERT_TRUE(txid.ok());
  EXPECT_EQ(cluster.node(1)->Get(*txid, "lost").value(), std::optional<std::string>("acked"));
}

// ---- End-to-end exactly-once under randomized failures -----------------------------

// Writes take long enough, and enough clients share each node, for commits
// on one node to overlap; each runs its own round.
TEST(CrashyFaasStressTest, StillYieldsZeroAnomalies) {
  RealClock clock(0.002);  // 500x real time; everything else is zero-latency.
  SimDynamoOptions dynamo = InstantDynamo();
  dynamo.profile.put = LatencyModel(1000.0, 0.0);
  dynamo.profile.batch_base = LatencyModel(1000.0, 0.0);
  SimDynamo storage(clock, dynamo);
  WorkloadSpec spec;
  spec.num_keys = 40;
  spec.zipf_theta = 1.2;
  spec.value_bytes = 64;
  (void)LoadAftDataset(storage, spec);

  ClusterOptions cluster_options;
  cluster_options.num_nodes = 3;
  cluster_options.multicast_interval = Millis(50);
  cluster_options.start_background_threads = true;
  cluster_options.node_options.service_cores = 0;
  cluster_options.node_options.enable_background_threads = true;
  cluster_options.node_options.local_gc_interval = Millis(50);
  cluster_options.fault_manager.gc_interval = Millis(50);
  cluster_options.fault_manager.scan_interval = Millis(100);
  ClusterDeployment cluster(storage, clock, cluster_options);
  ASSERT_TRUE(cluster.Start().ok());

  FaasOptions faas_options;
  faas_options.invocation_overhead = LatencyModel(1.0, 0.1, 0.5);
  faas_options.crash_probability = 0.1;
  faas_options.max_retries = 20;
  faas_options.retry_backoff = Millis(1);
  FaasPlatform faas(clock, faas_options);
  AftClientOptions client_options;
  client_options.network_hop = LatencyModel(0.2, 0.1, 0.1);
  AftClient client(cluster.balancer(), clock, client_options);
  TxnPlanGenerator plans(spec);
  AftRequestRunner runner(faas, client, clock, plans);

  HarnessOptions harness;
  harness.num_clients = 12;
  harness.requests_per_client = 20;
  const uint64_t batch_calls_before = storage.counters().batch_puts.load();
  const HarnessResult result = RunClients(clock, runner, harness);
  cluster.Stop();

  EXPECT_EQ(result.completed, 240u);
  EXPECT_EQ(result.ryw_anomalies, 0u);
  EXPECT_EQ(result.fr_anomalies, 0u);
  EXPECT_GT(faas.stats().crashes_injected.load(), 0u);
  // Every round is solo: its record is a PUT, never a batch call.
  EXPECT_EQ(storage.counters().batch_puts.load(), batch_calls_before);
  // Gossip + GC actually ran.
  EXPECT_GT(cluster.bus().stats().rounds.load(), 0u);
}

// Flaky STORAGE: every engine op can fail transiently (throttling / 500s).
// The retry stack — storage-read retries in the node, FaaS function retries,
// whole-request retries in the runner — must absorb them with zero anomalies.
TEST(ExactlyOnceStressTest, TransientStorageFaultsAreAbsorbed) {
  RealClock clock(0.002);
  SimDynamo storage(clock, InstantDynamo());
  WorkloadSpec spec;
  spec.num_keys = 40;
  spec.zipf_theta = 1.0;
  spec.value_bytes = 64;
  (void)LoadAftDataset(storage, spec);
  storage.InjectTransientFaults(0.05);  // 5% of ALL storage ops fail.

  ClusterOptions cluster_options;
  cluster_options.num_nodes = 2;
  cluster_options.multicast_interval = Millis(50);
  cluster_options.start_background_threads = true;
  cluster_options.node_options.service_cores = 0;
  ClusterDeployment cluster(storage, clock, cluster_options);
  ASSERT_TRUE(cluster.Start().ok());

  FaasOptions faas_options;
  faas_options.invocation_overhead = LatencyModel(1.0, 0.1, 0.5);
  faas_options.max_retries = 20;
  faas_options.retry_backoff = Millis(1);
  FaasPlatform faas(clock, faas_options);
  AftClientOptions client_options;
  client_options.network_hop = LatencyModel(0.2, 0.1, 0.1);
  AftClient client(cluster.balancer(), clock, client_options);
  TxnPlanGenerator plans(spec);
  RunnerRetryPolicy retry;
  retry.max_request_retries = 64;
  retry.retry_backoff = Millis(1);
  AftRequestRunner runner(faas, client, clock, plans, retry);

  HarnessOptions harness;
  harness.num_clients = 4;
  harness.requests_per_client = 40;
  const HarnessResult result = RunClients(clock, runner, harness);
  cluster.Stop();

  EXPECT_EQ(result.completed, 160u);
  EXPECT_EQ(result.ryw_anomalies, 0u);
  EXPECT_EQ(result.fr_anomalies, 0u);
  EXPECT_GT(storage.counters().transient_faults.load(), 0u);
}

// Kill a node DURING a multi-client run: every request still completes (via
// failover) and no anomaly ever surfaces.
TEST(ExactlyOnceStressTest, NodeDeathMidRunIsInvisibleToCorrectness) {
  RealClock clock(0.002);
  SimDynamo storage(clock, InstantDynamo());
  WorkloadSpec spec;
  spec.num_keys = 40;
  spec.zipf_theta = 1.0;
  spec.value_bytes = 64;
  (void)LoadAftDataset(storage, spec);

  ClusterOptions cluster_options;
  cluster_options.num_nodes = 3;
  cluster_options.multicast_interval = Millis(50);
  cluster_options.start_background_threads = true;
  cluster_options.node_options.service_cores = 0;
  cluster_options.fault_manager.enable_node_replacement = false;
  ClusterDeployment cluster(storage, clock, cluster_options);
  ASSERT_TRUE(cluster.Start().ok());

  FaasOptions faas_options;
  faas_options.invocation_overhead = LatencyModel(1.0, 0.1, 0.5);
  FaasPlatform faas(clock, faas_options);
  AftClientOptions client_options;
  client_options.network_hop = LatencyModel(0.2, 0.1, 0.1);
  AftClient client(cluster.balancer(), clock, client_options);
  TxnPlanGenerator plans(spec);
  AftRequestRunner runner(faas, client, clock, plans);

  std::thread assassin([&] {
    clock.SleepFor(Millis(300));
    cluster.KillNode(0);
  });
  HarnessOptions harness;
  harness.num_clients = 6;
  harness.requests_per_client = 50;
  const HarnessResult result = RunClients(clock, runner, harness);
  assassin.join();
  cluster.Stop();

  EXPECT_EQ(result.completed + result.failed, 300u);
  EXPECT_EQ(result.failed, 0u) << "whole-request retries must absorb the node death";
  EXPECT_EQ(result.ryw_anomalies, 0u);
  EXPECT_EQ(result.fr_anomalies, 0u);
}

// Stopping wakes every background loop (gossip, fault manager, each node's
// local GC) out of its interval wait: with 30 s intervals on a real clock,
// teardown must not wait one out.
TEST(ShutdownTest, StopWakesEveryBackgroundLoop) {
  RealClock clock;
  SimDynamo storage(clock, InstantDynamo());
  ClusterOptions options;
  options.num_nodes = 2;
  options.multicast_interval = std::chrono::seconds(30);
  options.fault_manager.detection_interval = std::chrono::seconds(30);
  options.node_options.enable_background_threads = true;
  options.node_options.local_gc_interval = std::chrono::seconds(30);
  auto cluster = std::make_unique<ClusterDeployment>(storage, clock, options);
  ASSERT_TRUE(cluster->Start().ok());

  const auto start = std::chrono::steady_clock::now();
  cluster.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

// Stopping abandons a node replacement still inside its modelled delays: a
// failure detected under a 20 s detection delay does not hold up teardown,
// and the replacement never starts.
TEST(ShutdownTest, StopAbandonsInFlightReplacement) {
  RealClock clock;
  SimDynamo storage(clock, InstantDynamo());
  ClusterOptions options;
  options.num_nodes = 2;
  options.fault_manager.detection_interval = Millis(10);
  options.fault_manager.failure_detection_delay = std::chrono::seconds(20);
  auto cluster = std::make_unique<ClusterDeployment>(storage, clock, options);
  ASSERT_TRUE(cluster->Start().ok());
  cluster->KillNode(0);
  const FaultManagerStats& stats = cluster->fault_manager().stats();
  ASSERT_TRUE(Await([&] { return stats.failures_detected.load() == 1; }));

  const auto start = std::chrono::steady_clock::now();
  cluster->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(stats.nodes_replaced.load(), 0u);
  EXPECT_EQ(cluster->node_count(), 2u) << "an abandoned replacement creates no node";
}

}  // namespace
}  // namespace aft
