// Tests for the workload layer: plan generation, dataset loading, the three
// request runners and the multi-client harness. These double as end-to-end
// integration tests of the whole stack with zero-latency engines.

#include <gtest/gtest.h>

#include "src/cluster/deployment.h"
#include "src/storage/sim_dynamo.h"
#include "src/storage/sim_redis.h"
#include "src/workload/dataset.h"
#include "src/workload/harness.h"

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

FaasOptions InstantFaas() {
  FaasOptions options;
  options.invocation_overhead = LatencyModel::Zero();
  options.retry_backoff = Duration::zero();
  return options;
}

WorkloadSpec SmallSpec() {
  WorkloadSpec spec;
  spec.num_keys = 50;
  spec.zipf_theta = 1.0;
  spec.value_bytes = 64;
  return spec;
}

AftNodeOptions InstantNode() {
  AftNodeOptions options;
  options.service_cores = 0;  // No service throttle in unit tests.
  return options;
}

// ---- Workload generation ------------------------------------------------------------

TEST(WorkloadTest, KeyNamesAreStableAndOrdered) {
  EXPECT_EQ(KeyForRank(0), "key00000000");
  EXPECT_EQ(KeyForRank(42), "key00000042");
  EXPECT_LT(KeyForRank(9), KeyForRank(10));
}

TEST(WorkloadTest, PayloadHasRequestedSizeAndIsDeterministic) {
  WorkloadSpec spec;
  spec.value_bytes = 4096;
  EXPECT_EQ(MakePayload(spec, 7).size(), 4096u);
  EXPECT_EQ(MakePayload(spec, 7), MakePayload(spec, 7));
  EXPECT_NE(MakePayload(spec, 7), MakePayload(spec, 8));
}

TEST(WorkloadTest, PlanMatchesSpecShape) {
  WorkloadSpec spec = SmallSpec();
  spec.num_functions = 3;
  spec.reads_per_function = 2;
  spec.writes_per_function = 1;
  TxnPlanGenerator generator(spec);
  Rng rng(1);
  const TxnPlan plan = generator.Generate(rng);
  ASSERT_EQ(plan.functions.size(), 3u);
  for (const auto& ops : plan.functions) {
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_TRUE(ops[0].is_read);
    EXPECT_TRUE(ops[1].is_read);
    EXPECT_FALSE(ops[2].is_read);
  }
  // Write set: unique, sorted, covers every planned write.
  EXPECT_LE(plan.write_set.size(), 3u);
  EXPECT_TRUE(std::is_sorted(plan.write_set.begin(), plan.write_set.end()));
  for (const auto& ops : plan.functions) {
    for (const auto& op : ops) {
      if (!op.is_read) {
        EXPECT_TRUE(std::binary_search(plan.write_set.begin(), plan.write_set.end(), op.key));
      }
    }
  }
}

TEST(WorkloadTest, PlanKeysComeFromTheDataset) {
  WorkloadSpec spec = SmallSpec();
  TxnPlanGenerator generator(spec);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const TxnPlan plan = generator.Generate(rng);
    for (const auto& ops : plan.functions) {
      for (const auto& op : ops) {
        EXPECT_GE(op.key, KeyForRank(0));
        EXPECT_LE(op.key, KeyForRank(spec.num_keys - 1));
      }
    }
  }
}

// ---- Dataset loading -----------------------------------------------------------------

TEST(DatasetTest, AftDatasetIsServedAfterBootstrap) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  WorkloadSpec spec = SmallSpec();
  ASSERT_TRUE(LoadAftDataset(storage, spec).ok());

  AftNode node("n0", storage, clock, InstantNode());
  ASSERT_TRUE(node.Start().ok());
  EXPECT_EQ(node.CommitSetSize(), spec.num_keys);
  auto txid = node.StartTransaction();
  auto value = node.Get(*txid, KeyForRank(3));
  ASSERT_TRUE(value.ok());
  ASSERT_TRUE(value->has_value());
  EXPECT_EQ(value->value(), MakePayload(spec, 3));
}

TEST(DatasetTest, PlainDatasetDecodes) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  WorkloadSpec spec = SmallSpec();
  ASSERT_TRUE(LoadPlainDataset(storage, spec).ok());
  PlainTransaction txn(storage, clock, {});
  auto value = txn.Get(KeyForRank(5));
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->value(), MakePayload(spec, 5));
  EXPECT_FALSE(txn.log().events[0].read.version.IsNull());
}

// ---- Runners + harness (full-stack integration) -----------------------------------------

struct AftStack {
  explicit AftStack(double theta = 1.0) : storage(clock, InstantDynamo()), faas(clock, InstantFaas()) {
    spec = SmallSpec();
    spec.zipf_theta = theta;
    (void)LoadAftDataset(storage, spec);
    ClusterOptions cluster_options;
    cluster_options.num_nodes = 2;
    cluster_options.start_background_threads = false;
    cluster_options.node_options = InstantNode();
    cluster = std::make_unique<ClusterDeployment>(storage, clock, cluster_options);
    EXPECT_TRUE(cluster->Start().ok());
    AftClientOptions client_options;
    client_options.network_hop = LatencyModel::Zero();
    client = std::make_unique<AftClient>(cluster->balancer(), clock, client_options);
    plans = std::make_unique<TxnPlanGenerator>(spec);
    runner = std::make_unique<AftRequestRunner>(faas, *client, clock, *plans);
  }

  SimClock clock;
  SimDynamo storage;
  FaasPlatform faas;
  WorkloadSpec spec;
  std::unique_ptr<ClusterDeployment> cluster;
  std::unique_ptr<AftClient> client;
  std::unique_ptr<TxnPlanGenerator> plans;
  std::unique_ptr<AftRequestRunner> runner;
};

TEST(RunnerTest, AftRunnerCompletesCleanRequests) {
  AftStack stack;
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    TxnLog log;
    ASSERT_TRUE(stack.runner->RunOnce(rng, &log).ok());
    const AnomalyVerdict verdict = CheckTransaction(log);
    EXPECT_FALSE(verdict.ryw_anomaly);
    EXPECT_FALSE(verdict.fr_anomaly);
    // 2 functions x (2 reads + 1 write) = 6 events.
    EXPECT_EQ(log.events.size(), 6u);
    stack.cluster->bus().RunOnce();  // Keep nodes in sync.
  }
}

TEST(RunnerTest, AftRunnerBatchModeCompletes) {
  AftStack stack;
  stack.runner->set_batch_writes(true);
  Rng rng(4);
  TxnLog log;
  ASSERT_TRUE(stack.runner->RunOnce(rng, &log).ok());
  EXPECT_EQ(log.events.size(), 6u);
}

TEST(RunnerTest, AftRunnerSurvivesFunctionCrashes) {
  AftStack stack;
  FaasOptions crashy = InstantFaas();
  crashy.crash_probability = 0.3;
  crashy.max_retries = 50;
  FaasPlatform faas(stack.clock, crashy);
  AftRequestRunner runner(faas, *stack.client, stack.clock, *stack.plans);
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    TxnLog log;
    ASSERT_TRUE(runner.RunOnce(rng, &log).ok());
    const AnomalyVerdict verdict = CheckTransaction(log);
    EXPECT_FALSE(verdict.ryw_anomaly) << "retries must stay idempotent";
    EXPECT_FALSE(verdict.fr_anomaly);
  }
  EXPECT_GT(faas.stats().crashes_injected.load(), 0u);
}

TEST(RunnerTest, PlainRunnerProducesObservationLogs) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  WorkloadSpec spec = SmallSpec();
  (void)LoadPlainDataset(storage, spec);
  FaasPlatform faas(clock, InstantFaas());
  TxnPlanGenerator plans(spec);
  PlainRequestRunner runner(faas, storage, clock, plans);
  Rng rng(6);
  TxnLog log;
  ASSERT_TRUE(runner.RunOnce(rng, &log).ok());
  EXPECT_EQ(log.events.size(), 6u);
}

TEST(RunnerTest, DynamoTxnRunnerGroupsWrites) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  WorkloadSpec spec = SmallSpec();
  (void)LoadPlainDataset(storage, spec);
  FaasPlatform faas(clock, InstantFaas());
  TxnPlanGenerator plans(spec);
  DynamoTxnRequestRunner runner(faas, storage, clock, plans);
  Rng rng(7);
  TxnLog log;
  ASSERT_TRUE(runner.RunOnce(rng, &log).ok());
  // All reads observed + all writes logged; writes installed atomically via
  // one TransactWriteItems call.
  EXPECT_GE(storage.txn_counters().txn_gets.load(), 2u);
  EXPECT_EQ(storage.txn_counters().txn_writes.load(), 1u);
  // Grouped writes mean RYW anomalies are impossible by construction.
  EXPECT_FALSE(CheckTransaction(log).ryw_anomaly);
}

TEST(HarnessTest, MultiClientRunAggregates) {
  AftStack stack;
  HarnessOptions options;
  options.num_clients = 4;
  options.requests_per_client = 10;
  const HarnessResult result = RunClients(stack.clock, *stack.runner, options);
  EXPECT_EQ(result.completed, 40u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GE(result.p99_ms, result.p50_ms);
  EXPECT_EQ(result.ryw_anomalies, 0u);
  EXPECT_EQ(result.fr_anomalies, 0u);
}

TEST(HarnessTest, AftNeverShowsAnomaliesUnderContention) {
  // Heavy skew + concurrent clients on a 2-node cluster with gossip delays:
  // the strongest anomaly hunt we can run in a unit test.
  AftStack stack(/*theta=*/2.0);
  HarnessOptions options;
  options.num_clients = 8;
  options.requests_per_client = 25;
  const HarnessResult result = RunClients(stack.clock, *stack.runner, options);
  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(result.ryw_anomalies, 0u) << "AFT must guarantee read-your-writes";
  EXPECT_EQ(result.fr_anomalies, 0u) << "AFT must guarantee read atomicity";
}

TEST(HarnessTest, TimelineReceivesEvents) {
  AftStack stack;
  HarnessOptions options;
  options.num_clients = 2;
  options.requests_per_client = 5;
  ThroughputTimeline timeline(stack.clock, Millis(100));
  const HarnessResult result = RunClients(stack.clock, *stack.runner, options, &timeline);
  EXPECT_EQ(timeline.total(), result.completed);
}

}  // namespace
}  // namespace aft
