// Ablation: commit-set multicast pruning (§4.1).
//
// Every node broadcasts its recently committed transactions once per 1 s
// gossip interval; transactions superseded within the interval are omitted.
// This bench measures how much metadata traffic the supersedence check saves
// as a function of workload skew — the paper's claim: "For highly contended
// workloads in particular ... this significantly reduces the volume of
// metadata that must be communicated between replicas."
//
// Each (zipf, pruning) config emits one JSON row (bench_common.h) carrying
// `saved_pct`, the share of records pruned from the broadcast (0 with
// pruning off); tools/bench_gate.sh holds the Zipf 2.0 saving to a floor.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/aft_env.h"
#include "src/storage/sim_dynamo.h"

namespace aft {
namespace {

using bench::AftEnv;
using bench::BenchClock;

struct AblationRow {
  HarnessResult result;
  uint64_t broadcast = 0;
  uint64_t pruned = 0;

  // Share of the drained records that pruning kept off the wire, in %.
  double SavedPct() const {
    return broadcast + pruned > 0
               ? 100.0 * static_cast<double>(pruned) / static_cast<double>(broadcast + pruned)
               : 0.0;
  }
};

AblationRow RunConfig(double theta, bool pruning, size_t requests) {
  WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.zipf_theta = theta;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 3;
  cluster_options.multicast_interval = Millis(1000);
  cluster_options.start_background_threads = true;
  AftEnv<SimDynamo> env(BenchClock(), spec, cluster_options);
  env.cluster->bus().set_pruning_enabled(pruning);

  HarnessOptions harness;
  harness.num_clients = 12;
  harness.requests_per_client = requests;
  harness.check_anomalies = false;
  AblationRow row;
  row.result = env.Run(harness);
  env.cluster->Stop();  // Final drain so every commit reaches the bus.
  row.broadcast = env.cluster->bus().stats().records_broadcast.load();
  row.pruned = env.cluster->bus().stats().records_pruned.load();
  return row;
}

}  // namespace
}  // namespace aft

int main() {
  using namespace aft;
  using namespace aft::bench;

  BenchClock(/*default_scale=*/0.3, /*default_spin_us=*/0);
  const size_t requests = static_cast<size_t>(GetEnvLong("AFT_BENCH_REQUESTS", 60));

  PrintTitle("Ablation: supersedence pruning of the commit multicast (3 nodes)");
  std::printf("  %-10s %-10s %-12s %-12s %-10s\n", "zipf", "pruning", "committed",
              "broadcast", "saved");
  std::vector<double> saved;
  for (double theta : {0.5, 1.0, 1.5, 2.0}) {
    for (bool pruning : {false, true}) {
      const AblationRow row = RunConfig(theta, pruning, requests);
      std::printf("  %-10.1f %-10s %-12llu %-12llu ", theta, pruning ? "on" : "off",
                  static_cast<unsigned long long>(row.result.completed),
                  static_cast<unsigned long long>(row.broadcast));
      if (pruning) {
        std::printf("%5.1f%%\n", row.SavedPct());
        saved.push_back(row.SavedPct());
      } else {
        std::printf("%-10s\n", "-");
      }
      char name[32];
      std::snprintf(name, sizeof(name), "zipf %.1f %s", theta, pruning ? "on" : "off");
      EmitJsonRow("ablation_pruning", name, row.result.p50_ms, row.result.p99_ms,
                  row.result.throughput_tps, row.result.completed, SavedPct(row.SavedPct()));
    }
  }

  PrintTitle("Shape checks");
  std::printf("  expected: savings grow with skew (hot keys supersede quickly within each "
              "1s window).\n");
  const bool grows = std::is_sorted(saved.begin(), saved.end());
  std::printf("  measured: %.1f%% -> %.1f%% -> %.1f%% -> %.1f%% saved: %s\n", saved[0], saved[1],
              saved[2], saved[3], grows ? "grows with skew" : "does NOT grow with skew");
  return 0;
}
