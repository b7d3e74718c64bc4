// Figure 7: single-node scalability. Throughput of ONE AFT node as the
// number of closed-loop clients grows from 1 to 50 (2-function 6-IO
// transactions, Zipf 1.5), over DynamoDB and Redis.
//
// Paper shape: linear scaling up to ~40 clients (DynamoDB) / ~45 clients
// (Redis), then a plateau as contention on the node's shared resources
// saturates it — peaking just under 600 txn/s (DynamoDB) and ~900 txn/s
// (Redis). The plateau here comes from the node's modelled service capacity
// (4 virtual cores, ~0.55ms per operation).

#include <cstdlib>

#include "bench/aft_env.h"
#include "src/storage/local_engine.h"
#include "src/storage/sim_dynamo.h"
#include "src/storage/sim_redis.h"

namespace aft {
namespace {

using bench::AftEnv;
using bench::BenchClock;
using bench::GetEnvLong;
using bench::PrintTitle;

template <typename EngineT>
void RunSweep(const char* label, double paper_peak) {
  std::printf("\n-- AFT over %s (paper peak ~%.0f txn/s) --\n", label, paper_peak);
  WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.zipf_theta = 1.5;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 1;
  AftEnv<EngineT> env(BenchClock(), spec, cluster_options);

  const long requests = GetEnvLong("AFT_BENCH_REQUESTS", 60);
  double last_tput = 0;
  for (size_t clients : {1, 5, 10, 20, 30, 40, 50}) {
    HarnessOptions harness;
    harness.num_clients = clients;
    harness.requests_per_client = static_cast<size_t>(requests);
    harness.check_anomalies = false;
    const HarnessResult result = env.Run(harness);
    std::printf("  %2zu clients   %7.1f txn/s   p50 %6.1f ms   p99 %7.1f ms\n", clients,
                result.throughput_tps, result.p50_ms, result.p99_ms);
    bench::EmitJsonRow("fig7_single_node",
                       std::string(label) + " " + std::to_string(clients) + "c",
                       result.p50_ms, result.p99_ms, result.throughput_tps, result.completed);
    last_tput = result.throughput_tps;
  }
  std::printf("  peak measured: %.0f txn/s\n", last_tput);
}

// The same single-node sweep over the durable WAL-backed engine — real
// writev + fdatasync instead of simulated latency. AftEnv holds its engine
// by value, so the factory-constructed LocalEngine gets a hand-rolled copy
// of the fixture. The headline column is fsyncs/txn: cross-transaction
// commit batching fuses every round member's data versions AND commit
// records into one WAL append with one group-committed sync, so the figure
// falls with concurrency (the PR 8 WAL-level group commit alone measured
// 0.13 at 16 writers; the protocol-level batcher stacks on top of it).
void RunLocalSweep() {
  std::printf("\n-- AFT over local WAL engine (real I/O; --engine local) --\n");
  char dir_template[] = "/tmp/aft_fig7_local_XXXXXX";
  const char* dir = mkdtemp(dir_template);
  if (dir == nullptr) {
    std::printf("  skipped: mkdtemp failed\n");
    return;
  }
  auto engine_or = LocalEngine::Open(dir);
  if (!engine_or.ok()) {
    std::printf("  skipped: %s\n", engine_or.status().ToString().c_str());
    return;
  }
  LocalEngine& engine = **engine_or;

  Clock& clock = BenchClock();
  WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.zipf_theta = 1.5;
  (void)LoadAftDataset(engine, spec);
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 1;
  ClusterDeployment cluster(engine, clock, cluster_options);
  (void)cluster.Start();
  AftClient client(cluster.balancer(), clock);
  FaasPlatform faas(clock);
  TxnPlanGenerator plans(spec);
  AftRequestRunner runner(faas, client, clock, plans);

  const long requests = GetEnvLong("AFT_BENCH_REQUESTS", 60);
  for (size_t clients : {1, 5, 10, 20, 30, 40, 50}) {
    HarnessOptions harness;
    harness.num_clients = clients;
    harness.requests_per_client = static_cast<size_t>(requests);
    harness.check_anomalies = false;
    const Wal::Stats before = engine.wal_stats();
    const HarnessResult result = RunClients(clock, runner, harness, nullptr);
    const Wal::Stats after = engine.wal_stats();
    const uint64_t fsyncs = after.fsyncs - before.fsyncs;
    const double fsyncs_per_txn =
        result.completed > 0 ? static_cast<double>(fsyncs) / result.completed : 0;
    std::printf(
        "  %2zu clients   %7.1f txn/s   p50 %6.1f ms   p99 %7.1f ms   %.3f fsyncs/txn\n",
        clients, result.throughput_tps, result.p50_ms, result.p99_ms, fsyncs_per_txn);
    bench::EmitJsonRow("fig7_single_node", "local " + std::to_string(clients) + "c",
                       result.p50_ms, result.p99_ms, result.throughput_tps, result.completed,
                       bench::FsyncsPerTxn(fsyncs_per_txn));
  }
  cluster.Stop();
}

}  // namespace
}  // namespace aft

int main() {
  using namespace aft;
  using namespace aft::bench;

  // Throughput bench: larger time scale + no spin-waiting so hundreds of
  // sleeping client threads do not contend for the CPU.
  BenchClock(/*default_scale=*/1.0, /*default_spin_us=*/0);

  PrintTitle("Figure 7: single-node throughput vs number of clients (Zipf 1.5)");
  RunSweep<SimDynamo>("DynamoDB", 600);
  RunSweep<SimRedis>("Redis", 900);
  RunLocalSweep();

  PrintTitle("Shape checks");
  std::printf("  expected: ~linear growth at low client counts, plateau by 40-50 clients;\n");
  std::printf("  expected: Redis peaks higher than DynamoDB (lower per-txn latency).\n");
  return 0;
}
