// Figure 10: fault tolerance. A 4-node AFT deployment serving 200 parallel
// clients; one node is killed ~10 seconds in. The fault manager detects the
// failure (~5s), allocates a standby, which downloads its container and
// warms its metadata cache (~45s), and the node joins around t=60s. These
// times are for the default 90 s run; AFT_BENCH_DURATION_SEC scales them in
// proportion, and the bench exits 1 if the kill lands after the clients stop.
//
// Paper shape: throughput drops ~16% at the failure, sags slightly while
// the surviving 3 nodes run saturated, then returns to the pre-failure peak
// within a few seconds of the replacement joining.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/aft_env.h"
#include "src/storage/sim_dynamo.h"

namespace aft {
namespace {

using bench::AftEnv;
using bench::BenchClock;
using bench::GetEnvLong;
using bench::PrintTitle;

}  // namespace
}  // namespace aft

int main() {
  using namespace aft;
  using namespace aft::bench;

  BenchClock(/*default_scale=*/1.0, /*default_spin_us=*/0);
  RealClock& clock = BenchClock();
  // Enough clients to saturate the 4-node fleet (like the paper's 200), so
  // the loss of one node is visible as a throughput drop.
  const size_t num_clients = static_cast<size_t>(GetEnvLong("AFT_BENCH_CLIENTS", 150));
  const double duration_sec = static_cast<double>(GetEnvLong("AFT_BENCH_DURATION_SEC", 90));
  // The paper's timeline is 90 s long; a shorter run shrinks it in
  // proportion, so the kill and the replacement still land inside the run.
  const double timeline_scale = duration_sec / 90.0;
  const auto scaled = [timeline_scale](double sec) {
    return std::chrono::duration_cast<Duration>(
        std::chrono::duration<double>(sec * timeline_scale));
  };
  const double kill_at_sec = 10.0 * timeline_scale;

  PrintTitle("Figure 10: node failure and recovery timeline");
  std::printf("  4 nodes, %zu clients; node killed at t=%.3gs; detection ~%.3gs; container "
              "download + cache warm ~%.3gs\n",
              num_clients, kill_at_sec, 5.0 * timeline_scale, 45.0 * timeline_scale);

  WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.zipf_theta = 1.0;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 4;
  cluster_options.multicast_interval = Millis(1000);
  cluster_options.start_background_threads = true;
  cluster_options.fault_manager.detection_interval = scaled(1.0);
  cluster_options.fault_manager.failure_detection_delay = scaled(5.0);
  cluster_options.fault_manager.container_download_time = scaled(45.0);
  AftEnv<SimDynamo> env(clock, spec, cluster_options);

  // The assassin: kills node 0 at t = kill_at_sec, and notes whether the
  // clients were still running then.
  std::atomic<bool> running{true};
  bool killed_while_running = false;
  std::thread assassin([&] {
    clock.SleepFor(scaled(10.0));
    killed_while_running = running.load();
    std::printf("  >> killing node %s\n", env.cluster->node(0)->node_id().c_str());
    env.cluster->KillNode(0);
  });

  // 1 s windows at the default 90 s; a shorter run shrinks them with the
  // timeline (and the report merges them if they come out too thin).
  const Duration window = scaled(1.0);
  ThroughputTimeline timeline(clock, window);
  HarnessOptions harness;
  harness.num_clients = num_clients;
  harness.requests_per_client = 1000000;
  harness.max_duration = std::chrono::duration_cast<Duration>(
      std::chrono::duration<double>(duration_sec));
  harness.check_anomalies = false;
  const HarnessResult result = env.Run(harness, &timeline);
  running.store(false);
  assassin.join();

  const auto& fm_stats = env.cluster->fault_manager().stats();
  std::printf("\n  failures detected: %llu, nodes replaced: %llu, missed commits recovered: "
              "%llu\n",
              static_cast<unsigned long long>(fm_stats.failures_detected.load()),
              static_cast<unsigned long long>(fm_stats.nodes_replaced.load()),
              static_cast<unsigned long long>(fm_stats.missed_commits_recovered.load()));
  std::printf("  requests failed over (retried on a surviving node): aggregate tput %.1f "
              "txn/s, %llu failed\n",
              result.throughput_tps, static_cast<unsigned long long>(result.failed));

  std::printf("\n  t(s)   txn/s\n");
  // Rows start at the first commit. A short run whose windows hold a few
  // commits each merges neighbours until a row averages kMinCommitsPerRow;
  // the default run fills its 1 s windows and keeps them.
  constexpr uint64_t kMinCommitsPerRow = 200;
  const auto rows = timeline.ReportMerged(kMinCommitsPerRow);
  const double row_sec = rows.size() >= 2 ? rows[1].window_start_sec - rows[0].window_start_sec
                                          : ToMillis(window) / 1000.0;
  // Whole seconds for rows of 1 s or more (the default run prints what it
  // always has), milliseconds below that.
  const int decimals = row_sec >= 1.0 ? 0 : 3;
  for (size_t i = 0; i + 1 < rows.size(); ++i) {
    const bool kill_row = rows[i].window_start_sec <= kill_at_sec &&
                          kill_at_sec < rows[i + 1].window_start_sec;
    std::printf("  %-6.*f %8.1f%s\n", decimals, rows[i].window_start_sec,
                rows[i].events_per_sec, kill_row ? "   << node fails" : "");
  }

  PrintTitle("Shape checks");
  std::printf("  expected: dip of roughly one node's share (~25%% of 4 nodes) after the kill;\n");
  std::printf("  expected: recovery to the pre-failure level shortly after t~%.3gs.\n",
              60.0 * timeline_scale);
  if (!killed_while_running) {
    std::fprintf(stderr, "bench_fig10_fault: the node was killed after the clients stopped; "
                         "the run measured no failure\n");
    return 1;
  }
  return 0;
}
