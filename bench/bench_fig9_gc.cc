// Figure 9: garbage collection overhead. Throughput over time for one AFT
// node with 40 clients (Zipf 1.5), with global data GC enabled vs disabled,
// plus the rate of transactions deleted by the GC.
//
// Paper shape: the two throughput curves are indistinguishable (GC runs off
// the critical path on dedicated delete cores), and with GC on, deletions
// proceed at roughly the rate transactions are committed under a moderately
// contended workload.

#include "bench/aft_env.h"
#include "src/storage/sim_dynamo.h"

namespace aft {
namespace {

using bench::AftEnv;
using bench::BenchClock;
using bench::GetEnvLong;
using bench::PrintTitle;

struct GcRun {
  std::vector<ThroughputTimeline::Row> throughput;
  std::vector<double> deletes_per_sec;
  HarnessResult result;
  uint64_t total_deleted = 0;
  size_t commit_set_size = 0;
};

GcRun RunConfig(bool gc_enabled, double duration_sec, size_t clients) {
  RealClock& clock = BenchClock();
  WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.zipf_theta = 1.5;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 1;
  cluster_options.multicast_interval = Millis(1000);
  cluster_options.start_background_threads = true;
  cluster_options.node_options.local_gc_interval = Millis(1000);
  cluster_options.fault_manager.enable_global_gc = gc_enabled;
  cluster_options.fault_manager.gc_interval = Millis(1000);
  AftEnv<SimDynamo> env(clock, spec, cluster_options);

  // Sample the GC deletion counter once per simulated second.
  std::atomic<bool> stop_sampler{false};
  std::vector<double> deletes_per_sec;
  std::thread sampler([&] {
    uint64_t last = 0;
    while (!stop_sampler.load()) {
      clock.SleepFor(Millis(1000));
      const uint64_t now = env.cluster->fault_manager().stats().txns_deleted.load();
      deletes_per_sec.push_back(static_cast<double>(now - last));
      last = now;
    }
  });

  ThroughputTimeline timeline(clock, Millis(1000));
  HarnessOptions harness;
  harness.num_clients = clients;
  harness.requests_per_client = 1000000;  // Bounded by max_duration below.
  harness.max_duration = std::chrono::duration_cast<Duration>(
      std::chrono::duration<double>(duration_sec));
  harness.check_anomalies = false;
  GcRun run;
  run.result = env.Run(harness, &timeline);
  stop_sampler.store(true);
  sampler.join();
  run.throughput = timeline.Report();
  run.deletes_per_sec = std::move(deletes_per_sec);
  run.total_deleted = env.cluster->fault_manager().stats().txns_deleted.load();
  run.commit_set_size = env.cluster->node(0)->CommitSetSize();
  return run;
}

}  // namespace
}  // namespace aft

int main() {
  using namespace aft;
  using namespace aft::bench;

  BenchClock(/*default_scale=*/0.5, /*default_spin_us=*/0);
  const double duration_sec =
      static_cast<double>(GetEnvLong("AFT_BENCH_DURATION_SEC", 25));
  const size_t clients = static_cast<size_t>(GetEnvLong("AFT_BENCH_CLIENTS", 40));

  PrintTitle("Figure 9: throughput with and without global garbage collection");
  std::printf("  1 node, %zu clients, Zipf 1.5, %.0f simulated seconds per configuration\n",
              clients, duration_sec);

  GcRun with_gc = RunConfig(true, duration_sec, clients);
  GcRun without_gc = RunConfig(false, duration_sec, clients);

  std::printf("\n  %-6s %-18s %-18s %-18s\n", "t(s)", "GC tput (txn/s)", "NoGC tput (txn/s)",
              "deleted (txn/s)");
  const size_t rows = std::min(with_gc.throughput.size(), without_gc.throughput.size());
  for (size_t i = 0; i + 1 < rows; ++i) {  // Drop the ragged final bucket.
    const double deletes =
        i < with_gc.deletes_per_sec.size() ? with_gc.deletes_per_sec[i] : 0;
    std::printf("  %-6.0f %-18.1f %-18.1f %-18.1f\n", with_gc.throughput[i].window_start_sec,
                with_gc.throughput[i].events_per_sec, without_gc.throughput[i].events_per_sec,
                deletes);
  }

  std::printf("\n  aggregate: GC on %.1f txn/s, GC off %.1f txn/s (paper: no discernible "
              "difference)\n",
              with_gc.result.throughput_tps, without_gc.result.throughput_tps);
  std::printf("  transactions deleted: %llu (%.1f/s); commit-set size at end: GC on %zu, "
              "GC off %zu\n",
              static_cast<unsigned long long>(with_gc.total_deleted),
              static_cast<double>(with_gc.total_deleted) / duration_sec,
              with_gc.commit_set_size, without_gc.commit_set_size);

  PrintTitle("Shape checks");
  std::printf("  expected: GC-on and GC-off throughput curves overlap;\n");
  std::printf("  expected: deletion rate tracks the commit rate under contention.\n");
  return 0;
}
