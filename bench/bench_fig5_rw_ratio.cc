// Figure 5: effect of the read-write ratio. Transactions of 10 total IOs
// (2 functions x 5 IOs), varying the fraction of reads from 0% to 100%,
// AFT over DynamoDB and Redis.
//
// Paper reference (median / p99 ms):
//   Dynamo:  0%% 56.5/130  20%% 58.1/135  40%% 59.3/122  60%% 60.8/123
//            80%% 61.0/123  100%% 58.1/124
//   Redis:   0%% 40.4/94.3  20%% 42.6/100  40%% 42.2/100  60%% 42.1/94.2
//            80%% 43.1/96.7  100%% 42.2/94.1
//
// Shapes: aft-R is flat (reads and writes cost the same over Redis and every
// IO is its own API call); aft-D varies <10% — batched writes make writes
// cheap, each read adds its own API call, and the 100% read point dips
// because the batch-write call disappears.

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
const PaperRow kPaperDynamo[] = {{56.5, 130}, {58.1, 135}, {59.3, 122},
                                 {60.8, 123}, {61.0, 123}, {58.1, 124}};
const PaperRow kPaperRedis[] = {{40.4, 94.3}, {42.6, 100}, {42.2, 100},
                                {42.1, 94.2}, {43.1, 96.7}, {42.2, 94.1}};

template <typename EngineT>
void RunSweep(const char* label, const PaperRow* paper, const HarnessOptions& harness) {
  std::printf("\n-- AFT over %s --\n", label);
  for (int reads = 0; reads <= 5; ++reads) {
    WorkloadSpec spec;
    spec.num_keys = 1000;
    spec.zipf_theta = 1.0;
    spec.num_functions = 2;
    spec.reads_per_function = static_cast<size_t>(reads);
    spec.writes_per_function = static_cast<size_t>(5 - reads);
    ClusterOptions cluster_options;
    cluster_options.num_nodes = 1;
    AftEnv<EngineT> env(BenchClock(), spec, cluster_options);
    const HarnessResult result = env.Run(harness);
    std::printf("  %3d%% reads   p50 %7.2f ms   p99 %8.2f ms   retries %4llu   "
                "(paper: %5.1f / %5.1f)\n",
                reads * 20, result.p50_ms, result.p99_ms,
                static_cast<unsigned long long>(env.runner->counters().request_retries.load()),
                paper[reads].median, paper[reads].p99);
  }
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
  harness.requests_per_client = static_cast<size_t>(GetEnvLong("AFT_BENCH_REQUESTS", 150));
  harness.check_anomalies = false;

  PrintTitle("Figure 5: read-write ratio (10 IOs per transaction, 2 functions)");
  RunSweep<SimDynamo>("DynamoDB", kPaperDynamo, harness);
  RunSweep<SimRedis>("Redis", kPaperRedis, harness);

  PrintTitle("Shape checks");
  std::printf("  expected: Redis flat across ratios; DynamoDB varies <10%%, dip at 100%%.\n");
  return 0;
}
