// Figure 4: read caching x data skew. End-to-end latency of the 2-function
// workload over a 100,000-key dataset at Zipf 1.0 / 1.5 / 2.0, comparing
// DynamoDB transaction mode against AFT over DynamoDB (aft-D) and Redis
// (aft-R), each with and without the node data cache.
//
// Paper reference (median / p99 ms):
//            z=1.0                     z=1.5                    z=2.0
//  DDB Txns        78.1 / 158    98.7 / 723    116  / 1140
//  Aft-D NoCache   69.9 / 147    68.6 / 145    67.6 / 149
//  Aft-D Cache     63.6 / 139    60.3 / 132    57.8 / 132
//  Aft-R NoCache   44.9 / 99.5   45.0 / 98.5   45.7 / 99.9
//  Aft-R Cache     42.7 / 92.0   42.7 / 97.5   44.4 / 92.5
//
// Shapes: caching helps aft-D ~10-17% (more as skew rises, since the hot
// head fits in cache); it barely moves aft-R (Redis IO is already cheap);
// DynamoDB transaction mode collapses under contention (conflict retries).

#include "bench/aft_env.h"
#include "src/storage/sim_dynamo.h"
#include "src/storage/sim_redis.h"

namespace aft {
namespace {

using bench::AftEnv;
using bench::BenchClock;
using bench::GetEnvLong;
using bench::PrintTitle;

struct PaperRow {
  double median, p99;
};

WorkloadSpec Fig4Spec(uint64_t keys, double theta) {
  WorkloadSpec spec;
  spec.num_keys = keys;
  spec.zipf_theta = theta;
  return spec;  // 2 functions x (2 reads + 1 write), 4KB — the §6.1.2 workload.
}

void PrintRow(const char* name, const HarnessResult& r, const PaperRow& paper) {
  std::printf("  %-18s p50 %7.2f ms   p99 %8.2f ms   (paper: %6.1f / %6.1f)\n", name,
              r.p50_ms, r.p99_ms, paper.median, paper.p99);
}

template <typename EngineT>
HarnessResult RunAftConfig(const WorkloadSpec& spec, const HarnessOptions& harness,
                           bool caching) {
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 1;
  cluster_options.node_options.data_cache_bytes = caching ? 256ull * 1024 * 1024 : 0;
  AftEnv<EngineT> env(BenchClock(), spec, cluster_options);
  return env.Run(harness);
}

HarnessResult RunTxnMode(const WorkloadSpec& spec, const HarnessOptions& harness) {
  RealClock& clock = BenchClock();
  SimDynamo engine(clock);
  (void)LoadPlainDataset(engine, spec);
  FaasPlatform faas(clock);
  TxnPlanGenerator plans(spec);
  DynamoTxnRequestRunner runner(faas, engine, clock, plans);
  return RunClients(clock, runner, harness);
}

}  // namespace
}  // namespace aft

int main() {
  using namespace aft;
  using namespace aft::bench;

  // Latency bench with concurrent clients: pure sleeps, moderate scale.
  BenchClock(/*default_scale=*/0.25, /*default_spin_us=*/0);

  const uint64_t keys = static_cast<uint64_t>(GetEnvLong("AFT_BENCH_KEYS", 100000));
  HarnessOptions harness;
  harness.num_clients = 10;
  harness.requests_per_client = static_cast<size_t>(GetEnvLong("AFT_BENCH_REQUESTS", 150));
  harness.check_anomalies = false;

  PrintTitle("Figure 4: read caching & data skew (2-function txns, " + std::to_string(keys) +
             " keys)");

  struct PaperCol {
    PaperRow txn, aftd_nc, aftd_c, aftr_nc, aftr_c;
  };
  const double zipfs[] = {1.0, 1.5, 2.0};
  const PaperCol paper[] = {
      {{78.1, 158}, {69.9, 147}, {63.6, 139}, {44.9, 99.5}, {42.7, 92.0}},
      {{98.7, 723}, {68.6, 145}, {60.3, 132}, {45.0, 98.5}, {42.7, 97.5}},
      {{116, 1140}, {67.6, 149}, {57.8, 132}, {45.7, 99.9}, {44.4, 92.5}},
  };

  for (int z = 0; z < 3; ++z) {
    const WorkloadSpec spec = Fig4Spec(keys, zipfs[z]);
    std::printf("\n-- Zipf %.1f --\n", zipfs[z]);
    PrintRow("DynamoDB Txns", RunTxnMode(spec, harness), paper[z].txn);
    PrintRow("Aft-D No Caching", RunAftConfig<SimDynamo>(spec, harness, false),
             paper[z].aftd_nc);
    PrintRow("Aft-D Caching", RunAftConfig<SimDynamo>(spec, harness, true), paper[z].aftd_c);
    PrintRow("Aft-R No Caching", RunAftConfig<SimRedis>(spec, harness, false),
             paper[z].aftr_nc);
    PrintRow("Aft-R Caching", RunAftConfig<SimRedis>(spec, harness, true), paper[z].aftr_c);
  }

  PrintTitle("Shape checks");
  std::printf("  expected: caching improves Aft-D more as skew rises; Aft-R barely moves;\n");
  std::printf("  expected: DynamoDB transaction mode degrades sharply with contention.\n");
  return 0;
}
