// Figure 3 + Table 2: end-to-end latency and consistency anomalies for the
// canonical workload — transactions of 2 sequential functions, each doing
// 2 reads + 1 write of 4KB objects (6 IOs), Zipf 1.0 over 1,000 keys,
// 10 parallel clients x 1,000 transactions — on S3, DynamoDB and Redis,
// with and without AFT, plus DynamoDB's transaction mode.
//
// Paper reference (medians / p99, ms):
//   S3       Plain 199/649   Aft 245/742
//   DynamoDB Txn-mode 81.1/351   Plain 69.1/137   Aft 68.8/141
//   Redis    Plain 33.6/72.5   Aft 39.8/87.8
// Table 2 (anomalies out of 10,000 txns):
//   aft 0/0; S3 595/836; DynamoDB 537/779; DynamoDB-serializable 0/115;
//   Redis 215/383.

#include <memory>

#include "bench/bench_common.h"
#include "src/cluster/deployment.h"
#include "src/storage/sim_dynamo.h"
#include "src/storage/sim_redis.h"
#include "src/storage/sim_s3.h"
#include "src/workload/dataset.h"
#include "src/workload/harness.h"

namespace aft {
namespace {

using bench::BenchClock;
using bench::GetEnvLong;
using bench::PrintTitle;

struct PaperRef {
  double median, p99;
  long ryw, fr;
};

void PrintRow(const char* name, const HarnessResult& r, const PaperRef& paper,
              uint64_t paper_txns, const char* consistency) {
  // Scale the paper's anomaly counts to this run's transaction count.
  const double scale = static_cast<double>(r.completed) / static_cast<double>(paper_txns);
  std::printf(
      "  %-28s p50 %7.2f ms  p99 %8.2f ms  RYW %5llu  FR %5llu   "
      "(paper: %5.1f / %5.1f ms, RYW~%.0f, FR~%.0f) [%s]\n",
      name, r.p50_ms, r.p99_ms, static_cast<unsigned long long>(r.ryw_anomalies),
      static_cast<unsigned long long>(r.fr_anomalies), paper.median, paper.p99,
      paper.ryw * scale, paper.fr * scale, consistency);
  bench::EmitJsonRow("fig3_end_to_end", name, r.p50_ms, r.p99_ms, r.throughput_tps,
                     r.completed);
}

WorkloadSpec CanonicalSpec() {
  WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.zipf_theta = 1.0;
  spec.value_bytes = 4096;
  spec.num_functions = 2;
  spec.reads_per_function = 2;
  spec.writes_per_function = 1;
  return spec;
}

template <typename EngineT>
HarnessResult RunPlain(const HarnessOptions& harness_options) {
  RealClock& clock = BenchClock();
  EngineT engine(clock);
  const WorkloadSpec spec = CanonicalSpec();
  (void)LoadPlainDataset(engine, spec);
  FaasPlatform faas(clock);
  TxnPlanGenerator plans(spec);
  PlainRequestRunner runner(faas, engine, clock, plans);
  return RunClients(clock, runner, harness_options);
}

template <typename EngineT>
HarnessResult RunAft(const HarnessOptions& harness_options) {
  RealClock& clock = BenchClock();
  EngineT engine(clock);
  const WorkloadSpec spec = CanonicalSpec();
  (void)LoadAftDataset(engine, spec);
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 1;
  // Figure 3 runs WITHOUT read caching (caching is studied separately in
  // Figure 4, whose "No Caching" bars match Figure 3's AFT levels).
  cluster_options.node_options.data_cache_bytes = 0;
  ClusterDeployment cluster(engine, clock, cluster_options);
  if (!cluster.Start().ok()) {
    return {};
  }
  FaasPlatform faas(clock);
  AftClient client(cluster.balancer(), clock);
  TxnPlanGenerator plans(spec);
  AftRequestRunner runner(faas, client, clock, plans);
  HarnessResult result = RunClients(clock, runner, harness_options);
  cluster.Stop();
  return result;
}

HarnessResult RunDynamoTxn(const HarnessOptions& harness_options) {
  RealClock& clock = BenchClock();
  SimDynamo engine(clock);
  const WorkloadSpec spec = CanonicalSpec();
  (void)LoadPlainDataset(engine, spec);
  FaasPlatform faas(clock);
  TxnPlanGenerator plans(spec);
  DynamoTxnRequestRunner runner(faas, engine, clock, plans);
  return RunClients(clock, runner, harness_options);
}

}  // namespace
}  // namespace aft

int main() {
  using namespace aft;
  using namespace aft::bench;

  // Latency bench with concurrent clients: pure sleeps, moderate scale.
  BenchClock(/*default_scale=*/0.25, /*default_spin_us=*/0);

  HarnessOptions harness;
  harness.num_clients = 10;
  harness.requests_per_client =
      static_cast<size_t>(GetEnvLong("AFT_BENCH_REQUESTS", 200));

  PrintTitle("Figure 3 + Table 2: end-to-end latency & anomalies (2 functions, 6 IOs, Zipf 1.0)");
  std::printf("  %zu clients x %zu transactions; paper anomaly counts rescaled to this size\n",
              harness.num_clients, harness.requests_per_client);
  constexpr uint64_t kPaperTxns = 10000;

  {
    auto plain = RunPlain<SimS3>(harness);
    PrintRow("S3 Plain", plain, PaperRef{199, 649, 595, 836}, kPaperTxns, "none");
    auto aft_result = RunAft<SimS3>(harness);
    PrintRow("S3 Aft", aft_result, PaperRef{245, 742, 0, 0}, kPaperTxns, "read atomic");
  }
  {
    auto txn = RunDynamoTxn(harness);
    PrintRow("DynamoDB Transactional", txn, PaperRef{81.1, 351, 0, 115}, kPaperTxns,
             "serializable r/o-w/o");
    auto plain = RunPlain<SimDynamo>(harness);
    PrintRow("DynamoDB Plain", plain, PaperRef{69.1, 137, 537, 779}, kPaperTxns, "none");
    auto aft_result = RunAft<SimDynamo>(harness);
    PrintRow("DynamoDB Aft", aft_result, PaperRef{68.8, 141, 0, 0}, kPaperTxns, "read atomic");
  }
  {
    auto plain = RunPlain<SimRedis>(harness);
    PrintRow("Redis Plain", plain, PaperRef{33.6, 72.5, 215, 383}, kPaperTxns,
             "shard-linearizable");
    auto aft_result = RunAft<SimRedis>(harness);
    PrintRow("Redis Aft", aft_result, PaperRef{39.8, 87.8, 0, 0}, kPaperTxns, "read atomic");
  }

  PrintTitle("Shape checks");
  std::printf("  expected: AFT ~= Plain on DynamoDB; AFT +20-25%% on S3/Redis;\n");
  std::printf("  expected: AFT rows report ZERO anomalies; every baseline reports some.\n");
  return 0;
}
