// Integration tests for the cluster layer: load balancing, commit multicast,
// fault-manager liveness, global GC, and node failure/replacement.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/baseline/anomaly_checker.h"
#include "src/cluster/aft_client.h"
#include "src/cluster/deployment.h"
#include "src/faas/faas_platform.h"
#include "src/storage/sim_dynamo.h"
#include "src/storage/sim_s3.h"
#include "src/workload/dataset.h"
#include "src/workload/runners.h"
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

ClusterOptions ManualCluster(size_t nodes) {
  ClusterOptions options;
  options.num_nodes = nodes;
  options.start_background_threads = false;  // Tests drive rounds manually.
  options.fault_manager.failure_detection_delay = Millis(10);
  options.fault_manager.container_download_time = Millis(50);
  return options;
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : storage_(clock_, InstantDynamo()) {}

  TxnId CommitVia(AftNode& node, const std::string& key, const std::string& value) {
    auto txid = node.StartTransaction();
    EXPECT_TRUE(txid.ok());
    EXPECT_TRUE(node.Put(*txid, key, value).ok());
    auto committed = node.CommitTransaction(*txid);
    EXPECT_TRUE(committed.ok());
    return committed.ok() ? *committed : TxnId();
  }

  std::optional<std::string> ReadVia(AftNode& node, const std::string& key) {
    auto txid = node.StartTransaction();
    auto result = node.Get(*txid, key);
    EXPECT_TRUE(result.ok());
    (void)node.AbortTransaction(*txid);
    return result.ok() ? *result : std::nullopt;
  }

  SimClock clock_;
  SimDynamo storage_;
};

// ---- LoadBalancer -----------------------------------------------------------------

TEST_F(ClusterTest, LoadBalancerRoundRobinsAcrossNodes) {
  ClusterDeployment cluster(storage_, clock_, ManualCluster(3));
  ASSERT_TRUE(cluster.Start().ok());
  std::map<AftNode*, int> picks;
  for (int i = 0; i < 30; ++i) {
    ++picks[cluster.balancer().Pick()];
  }
  EXPECT_EQ(picks.size(), 3u);
  for (const auto& [node, count] : picks) {
    EXPECT_EQ(count, 10);
  }
}

TEST_F(ClusterTest, LoadBalancerSkipsDeadNodes) {
  ClusterDeployment cluster(storage_, clock_, ManualCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  cluster.KillNode(0);
  for (int i = 0; i < 10; ++i) {
    AftNode* picked = cluster.balancer().Pick();
    ASSERT_NE(picked, nullptr);
    EXPECT_TRUE(picked->alive());
  }
}

TEST_F(ClusterTest, LoadBalancerEmptyReturnsNull) {
  LoadBalancer balancer;
  EXPECT_EQ(balancer.Pick(), nullptr);
}

// ---- Multicast -----------------------------------------------------------------------

TEST_F(ClusterTest, CommitsPropagateViaGossip) {
  ClusterDeployment cluster(storage_, clock_, ManualCluster(3));
  ASSERT_TRUE(cluster.Start().ok());
  CommitVia(*cluster.node(0), "k", "gossip");
  EXPECT_FALSE(ReadVia(*cluster.node(1), "k").has_value());
  cluster.bus().RunOnce();
  EXPECT_EQ(ReadVia(*cluster.node(1), "k").value(), "gossip");
  EXPECT_EQ(ReadVia(*cluster.node(2), "k").value(), "gossip");
}

TEST_F(ClusterTest, GossipPrunesSupersededRecords) {
  ClusterDeployment cluster(storage_, clock_, ManualCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  CommitVia(*cluster.node(0), "k", "old");
  CommitVia(*cluster.node(0), "k", "new");
  cluster.bus().RunOnce();
  // Only the superseding record was broadcast; the fault manager saw both.
  EXPECT_EQ(cluster.bus().stats().records_broadcast.load(), 1u);
  EXPECT_EQ(cluster.bus().stats().records_pruned.load(), 1u);
  EXPECT_EQ(cluster.bus().stats().records_to_fault_manager.load(), 2u);
  EXPECT_EQ(ReadVia(*cluster.node(1), "k").value(), "new");
}

TEST_F(ClusterTest, PruningCanBeDisabled) {
  ClusterDeployment cluster(storage_, clock_, ManualCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  cluster.bus().set_pruning_enabled(false);
  CommitVia(*cluster.node(0), "k", "old");
  CommitVia(*cluster.node(0), "k", "new");
  cluster.bus().RunOnce();
  EXPECT_EQ(cluster.bus().stats().records_broadcast.load(), 2u);
  EXPECT_EQ(cluster.bus().stats().records_pruned.load(), 0u);
}

// ---- Client sessions --------------------------------------------------------------------

TEST_F(ClusterTest, ClientSessionsStickToOneNode) {
  ClusterDeployment cluster(storage_, clock_, ManualCluster(3));
  ASSERT_TRUE(cluster.Start().ok());
  AftClientOptions client_options;
  client_options.network_hop = LatencyModel::Zero();
  AftClient client(cluster.balancer(), clock_, client_options);

  auto session = client.StartTransaction();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(client.Put(*session, "a", "1").ok());
  ASSERT_TRUE(client.Put(*session, "b", "2").ok());
  // Read-your-writes works regardless of which node the balancer picked.
  EXPECT_EQ(client.Get(*session, "a")->value(), "1");
  ASSERT_TRUE(client.Commit(*session).ok());
}

TEST_F(ClusterTest, ClientFailsOverAfterNodeDeath) {
  ClusterDeployment cluster(storage_, clock_, ManualCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  AftClientOptions client_options;
  client_options.network_hop = LatencyModel::Zero();
  AftClient client(cluster.balancer(), clock_, client_options);

  auto session = client.StartTransaction();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(client.Put(*session, "k", "doomed").ok());
  session->node->Kill();
  // Mid-transaction node death: operations fail, the client must redo the
  // whole transaction (§3.3.1) on a surviving node.
  EXPECT_TRUE(client.Put(*session, "k", "again").IsUnavailable());
  auto retry = client.StartTransaction();
  ASSERT_TRUE(retry.ok());
  EXPECT_NE(retry->node, session->node);
  ASSERT_TRUE(client.Put(*retry, "k", "survived").ok());
  ASSERT_TRUE(client.Commit(*retry).ok());
}

// ---- Fault manager: liveness -----------------------------------------------------------

TEST_F(ClusterTest, LivenessScanRecoversUnbroadcastCommits) {
  ClusterDeployment cluster(storage_, clock_, ManualCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  // Node 0 commits and ACKs the client, then dies BEFORE the gossip round.
  CommitVia(*cluster.node(0), "k", "acked");
  cluster.KillNode(0);
  cluster.bus().RunOnce();  // Dead node is not drained.
  EXPECT_FALSE(ReadVia(*cluster.node(1), "k").has_value());

  // The fault manager's storage scan finds the orphaned commit record and
  // notifies the survivors — the acked data is never lost (§4.2). Fresh
  // commits are under the liveness grace window, so advance past it first.
  clock_.Advance(std::chrono::seconds(5));
  EXPECT_EQ(cluster.fault_manager().RunLivenessScanOnce(), 1u);
  EXPECT_EQ(ReadVia(*cluster.node(1), "k").value(), "acked");
}

TEST_F(ClusterTest, LivenessScanIsIdempotent) {
  ClusterDeployment cluster(storage_, clock_, ManualCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  CommitVia(*cluster.node(0), "k", "v");
  cluster.bus().RunOnce();
  const size_t first = cluster.fault_manager().RunLivenessScanOnce();
  EXPECT_EQ(cluster.fault_manager().RunLivenessScanOnce(), 0u);
  (void)first;
}

// ---- Fault manager: global GC ------------------------------------------------------------

TEST_F(ClusterTest, GlobalGcDeletesSupersededDataEverywhere) {
  ClusterDeployment cluster(storage_, clock_, ManualCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  const TxnId old_id = CommitVia(*cluster.node(0), "k", "old");
  CommitVia(*cluster.node(0), "k", "new");
  cluster.bus().RunOnce();  // Fault manager ingests both records.

  // Before local GC has run anywhere, the global GC must hold off.
  EXPECT_EQ(cluster.fault_manager().RunGlobalGcOnce(), 0u);

  // All nodes drop the superseded record locally...
  (void)cluster.node(0)->RunLocalGcOnce();
  (void)cluster.node(1)->RunLocalGcOnce();
  EXPECT_TRUE(cluster.node(0)->HasLocallyDeleted(old_id));

  // ...then the global GC deletes the data and commit record from storage.
  EXPECT_EQ(cluster.fault_manager().RunGlobalGcOnce(), 1u);
  cluster.fault_manager().Stop();  // Flush the deletion pool.
  EXPECT_TRUE(storage_.Get(CommitStorageKey(old_id)).status().IsNotFound());
  EXPECT_TRUE(
      storage_.Get(VersionStorageKey("k", old_id.uuid)).status().IsNotFound());
  // The tombstone bookkeeping was acknowledged and cleared.
  EXPECT_FALSE(cluster.node(0)->HasLocallyDeleted(old_id));
  // The surviving version still reads fine on both nodes.
  EXPECT_EQ(ReadVia(*cluster.node(0), "k").value(), "new");
  EXPECT_EQ(ReadVia(*cluster.node(1), "k").value(), "new");
}

TEST_F(ClusterTest, GlobalGcBlockedWhileAnyNodeStillCachesRecord) {
  ClusterDeployment cluster(storage_, clock_, ManualCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  // Disable pruning so node 1 actually caches the superseded record.
  cluster.bus().set_pruning_enabled(false);
  CommitVia(*cluster.node(0), "k", "old");
  CommitVia(*cluster.node(0), "k", "new");
  cluster.bus().RunOnce();
  (void)cluster.node(0)->RunLocalGcOnce();
  // Node 1 has NOT run local GC: it still caches the superseded record.
  EXPECT_EQ(cluster.fault_manager().RunGlobalGcOnce(), 0u);
  // Once node 1 drops it too, the deletion can proceed.
  (void)cluster.node(1)->RunLocalGcOnce();
  EXPECT_EQ(cluster.fault_manager().RunGlobalGcOnce(), 1u);
}

TEST_F(ClusterTest, GlobalGcCanBeDisabled) {
  ClusterOptions options = ManualCluster(1);
  options.fault_manager.enable_global_gc = false;
  ClusterDeployment cluster(storage_, clock_, options);
  ASSERT_TRUE(cluster.Start().ok());
  CommitVia(*cluster.node(0), "k", "old");
  CommitVia(*cluster.node(0), "k", "new");
  cluster.bus().RunOnce();
  (void)cluster.node(0)->RunLocalGcOnce();
  EXPECT_EQ(cluster.fault_manager().RunGlobalGcOnce(), 0u);
}

// ---- Fault manager: failure detection & replacement ----------------------------------------

TEST_F(ClusterTest, FailedNodeIsReplacedAndBootstraps) {
  ClusterOptions options = ManualCluster(2);
  ClusterDeployment cluster(storage_, clock_, options);
  ASSERT_TRUE(cluster.Start().ok());
  CommitVia(*cluster.node(0), "k", "precious");
  cluster.bus().RunOnce();

  cluster.KillNode(0);
  cluster.fault_manager().CheckForFailuresOnce();
  // The replacement's modelled delays pass instantly on the sim clock; Stop
  // would abandon it, so wait for it to join before Stop joins its thread.
  ASSERT_TRUE(Await([&] { return cluster.fault_manager().stats().nodes_replaced.load() == 1; }));
  cluster.fault_manager().Stop();

  EXPECT_EQ(cluster.fault_manager().stats().failures_detected.load(), 1u);
  EXPECT_EQ(cluster.fault_manager().stats().nodes_replaced.load(), 1u);
  ASSERT_EQ(cluster.node_count(), 3u);
  AftNode* replacement = cluster.node(2);
  ASSERT_NE(replacement, nullptr);
  EXPECT_TRUE(replacement->alive());
  // The replacement bootstrapped from the commit set: it serves the data.
  EXPECT_EQ(ReadVia(*replacement, "k").value(), "precious");
  // And the balancer routes to it.
  std::set<AftNode*> picked;
  for (int i = 0; i < 10; ++i) {
    picked.insert(cluster.balancer().Pick());
  }
  EXPECT_TRUE(picked.contains(replacement));
}

TEST_F(ClusterTest, FailureHandledOnlyOnce) {
  ClusterDeployment cluster(storage_, clock_, ManualCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  cluster.KillNode(0);
  cluster.fault_manager().CheckForFailuresOnce();
  cluster.fault_manager().CheckForFailuresOnce();
  ASSERT_TRUE(Await([&] { return cluster.fault_manager().stats().nodes_replaced.load() == 1; }));
  cluster.fault_manager().Stop();
  EXPECT_EQ(cluster.fault_manager().stats().failures_detected.load(), 1u);
  EXPECT_EQ(cluster.fault_manager().stats().nodes_replaced.load(), 1u);
}

// ---- Transport parity: in-proc vs loopback TCP ------------------------------------------------
//
// The same protocol tests run under both transports: the gossip/recovery
// logic must not care whether records move by method call or over a real
// socket (src/net).

class ClusterTransportTest : public ClusterTest,
                             public ::testing::WithParamInterface<ClusterTransport> {
 protected:
  ClusterOptions Manual(size_t nodes) {
    ClusterOptions options = ManualCluster(nodes);
    options.transport = GetParam();
    return options;
  }
};

TEST_P(ClusterTransportTest, CommitsPropagateViaGossip) {
  ClusterDeployment cluster(storage_, clock_, Manual(3));
  ASSERT_TRUE(cluster.Start().ok());
  CommitVia(*cluster.node(0), "k", "gossip");
  EXPECT_FALSE(ReadVia(*cluster.node(1), "k").has_value());
  cluster.bus().RunOnce();
  EXPECT_EQ(ReadVia(*cluster.node(1), "k").value(), "gossip");
  EXPECT_EQ(ReadVia(*cluster.node(2), "k").value(), "gossip");
}

TEST_P(ClusterTransportTest, GossipPrunesSupersededRecords) {
  ClusterDeployment cluster(storage_, clock_, Manual(2));
  ASSERT_TRUE(cluster.Start().ok());
  CommitVia(*cluster.node(0), "k", "old");
  CommitVia(*cluster.node(0), "k", "new");
  cluster.bus().RunOnce();
  EXPECT_EQ(cluster.bus().stats().records_broadcast.load(), 1u);
  EXPECT_EQ(cluster.bus().stats().records_pruned.load(), 1u);
  EXPECT_EQ(cluster.bus().stats().records_to_fault_manager.load(), 2u);
  EXPECT_EQ(ReadVia(*cluster.node(1), "k").value(), "new");
}

// The background loop gossips once per interval and not per commit, so
// commits that supersede each other inside one interval are pruned (§4.1).
TEST_P(ClusterTransportTest, BackgroundGossipPrunesWithinOneInterval) {
  ClusterOptions options = Manual(2);
  // Nothing but the bus may sleep on the clock: the node's service model
  // would wait for an Advance that never comes.
  options.node_options.service_cores = 0;
  ClusterDeployment cluster(storage_, clock_, options);
  ASSERT_TRUE(cluster.Start().ok());
  clock_.set_auto_advance(false);  // The interval elapses only on Advance.
  cluster.bus().Start();
  const MulticastStats& stats = cluster.bus().stats();
  CommitVia(*cluster.node(0), "k", "old");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(stats.rounds.load(), 0u) << "a commit must not trigger a gossip round";
  CommitVia(*cluster.node(0), "k", "new");
  ASSERT_TRUE(Await([&] { return clock_.sleepers() == 1; }));  // The bus loop waits.
  clock_.Advance(options.multicast_interval);
  ASSERT_TRUE(Await([&] {
    return stats.records_broadcast.load() + stats.records_pruned.load() == 2;
  }));
  EXPECT_EQ(stats.records_broadcast.load(), 1u);
  EXPECT_EQ(stats.records_pruned.load(), 1u);
}

TEST_P(ClusterTransportTest, LivenessScanRecoversUnbroadcastCommits) {
  ClusterDeployment cluster(storage_, clock_, Manual(2));
  ASSERT_TRUE(cluster.Start().ok());
  CommitVia(*cluster.node(0), "k", "acked");
  cluster.KillNode(0);
  cluster.bus().RunOnce();
  EXPECT_FALSE(ReadVia(*cluster.node(1), "k").has_value());
  clock_.Advance(std::chrono::seconds(5));
  EXPECT_EQ(cluster.fault_manager().RunLivenessScanOnce(), 1u);
  EXPECT_EQ(ReadVia(*cluster.node(1), "k").value(), "acked");
}

INSTANTIATE_TEST_SUITE_P(Transports, ClusterTransportTest,
                         ::testing::Values(ClusterTransport::kInProc, ClusterTransport::kTcp),
                         [](const ::testing::TestParamInfo<ClusterTransport>& info) {
                           return info.param == ClusterTransport::kTcp ? "Tcp" : "InProc";
                         });

// ---- Full background deployment (threads on) -------------------------------------------------

TEST(ClusterBackgroundTest, EndToEndWithBackgroundThreads) {
  RealClock clock(0.01);  // 100x real time.
  SimDynamo storage(clock, InstantDynamo());
  ClusterOptions options;
  options.num_nodes = 2;
  options.multicast_interval = Millis(200);
  options.node_options.local_gc_interval = Millis(200);
  options.node_options.enable_background_threads = true;
  options.fault_manager.gc_interval = Millis(300);
  options.fault_manager.scan_interval = Millis(500);
  options.fault_manager.detection_interval = Millis(100);
  ClusterDeployment cluster(storage, clock, options);
  ASSERT_TRUE(cluster.Start().ok());

  AftClientOptions client_options;
  client_options.network_hop = LatencyModel::Zero();
  AftClient client(cluster.balancer(), clock, client_options);
  // Commit through node 0 explicitly.
  auto txid = cluster.node(0)->StartTransaction();
  ASSERT_TRUE(txid.ok());
  ASSERT_TRUE(cluster.node(0)->Put(*txid, "bg", "works").ok());
  ASSERT_TRUE(cluster.node(0)->CommitTransaction(*txid).ok());

  // Within a few multicast periods node 1 serves the data.
  bool visible = false;
  for (int i = 0; i < 50 && !visible; ++i) {
    clock.SleepFor(Millis(100));
    auto reader = cluster.node(1)->StartTransaction();
    if (!reader.ok()) {
      continue;
    }
    auto result = cluster.node(1)->Get(*reader, "bg");
    visible = result.ok() && result->has_value();
    (void)cluster.node(1)->AbortTransaction(*reader);
  }
  cluster.Stop();
  EXPECT_TRUE(visible);
}

// A started deployment runs every GC loop with no further switch: default
// ClusterOptions (two nodes) over default SimS3, requests superseding a few
// keys' versions. Records, commit-set caches and the store's own entries
// stay bounded, reads stay atomic, and Stop() stops the node GC too.
TEST(ClusterBackgroundTest, DefaultDeploymentGarbageCollectsAndStaysBounded) {
  RealClock clock(0.01);  // 100x real time: a 1 s GC interval is 10 ms.
  SimS3 storage(clock);
  WorkloadSpec spec;
  spec.num_keys = 6;
  spec.value_bytes = 64;
  ASSERT_TRUE(LoadAftDataset(storage, spec).ok());
  ClusterOptions options;
  options.num_nodes = 2;
  ClusterDeployment cluster(storage, clock, options);
  ASSERT_TRUE(cluster.Start().ok());
  FaasPlatform faas(clock);
  AftClient client(cluster.balancer(), clock);
  const TxnPlanGenerator plans(spec);
  AftRequestRunner runner(faas, client, clock, plans);

  constexpr int kRequests = 400;
  Rng rng(11);
  int committed = 0;
  size_t max_records = 0;
  size_t max_entries = 0;
  size_t max_commit_set = 0;
  for (int i = 0; i < kRequests; ++i) {
    TxnLog log;
    if (runner.RunOnce(rng, &log).ok()) {
      ++committed;
      const AnomalyVerdict verdict = CheckTransaction(log);
      EXPECT_FALSE(verdict.ryw_anomaly) << "request " << i;
      EXPECT_FALSE(verdict.fr_anomaly) << "request " << i;
    }
    if (i >= kRequests / 2 && i % 10 == 0) {
      max_records = std::max(max_records, storage.List(kCommitPrefix)->size());
      max_entries = std::max(max_entries, storage.ApproximateKeyCount());
      for (size_t n = 0; n < cluster.node_count(); ++n) {
        max_commit_set = std::max(max_commit_set, cluster.node(n)->CommitSetSize());
      }
    }
  }
  EXPECT_GE(committed, kRequests * 9 / 10);
  // Without GC each would exceed the commit count.
  EXPECT_LT(max_records, static_cast<size_t>(committed) / 4);
  EXPECT_LT(max_entries, static_cast<size_t>(committed) / 4);
  EXPECT_LT(max_commit_set, static_cast<size_t>(committed) / 4);
  EXPECT_GT(cluster.fault_manager().stats().txns_deleted.load(), 0u);

  cluster.Stop();
  uint64_t removed = 0;
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    removed += cluster.node(n)->stats().gc_records_removed.load();
  }
  EXPECT_GT(removed, 0u);
  clock.SleepFor(std::chrono::seconds(5));  // Five local-GC intervals.
  uint64_t removed_after = 0;
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    removed_after += cluster.node(n)->stats().gc_records_removed.load();
  }
  EXPECT_EQ(removed_after, removed) << "a node's local GC ran after Stop()";
}

}  // namespace
}  // namespace aft
