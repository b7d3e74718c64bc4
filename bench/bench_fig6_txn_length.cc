// Figure 6: transaction length. Transactions of 1 to 10 functions (each
// doing 2 reads + 1 write) over DynamoDB and Redis.
//
// Paper reference (median / p99 ms):
//   Dynamo: 1f 43.0/101  2f 70.3/141  4f 123/216  6f 175/280  8f 221/334  10f 270/403
//   Redis:  1f 27.0/69.6 2f 49.8/115  4f 96.6/176 6f 144/238  8f 191/291  10f 239/352
//
// Shapes: both scale ~linearly with length; DynamoDB's batched commit masks
// the growing write set (10-function txns are ~6x a 1-function txn, not
// 10x); Redis pays one API call per write so it scales closer to ~9x; the
// relative DynamoDB-vs-Redis gap shrinks with length (59% -> 13% in the
// paper) because the fixed commit overhead amortizes.

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
const size_t kLengths[] = {1, 2, 4, 6, 8, 10};
const PaperRow kPaperDynamo[] = {{43.0, 101}, {70.3, 141}, {123, 216},
                                 {175, 280},  {221, 334},  {270, 403}};
const PaperRow kPaperRedis[] = {{27.0, 69.6}, {49.8, 115}, {96.6, 176},
                                {144, 238},   {191, 291},  {239, 352}};

template <typename EngineT>
std::vector<HarnessResult> RunSweep(const char* label, const PaperRow* paper,
                                    const HarnessOptions& harness) {
  std::printf("\n-- AFT over %s --\n", label);
  std::vector<HarnessResult> results;
  for (size_t i = 0; i < std::size(kLengths); ++i) {
    WorkloadSpec spec;
    spec.num_keys = 1000;
    spec.zipf_theta = 1.0;
    spec.num_functions = kLengths[i];
    spec.reads_per_function = 2;
    spec.writes_per_function = 1;
    ClusterOptions cluster_options;
    cluster_options.num_nodes = 1;
    AftEnv<EngineT> env(BenchClock(), spec, cluster_options);
    results.push_back(env.Run(harness));
    std::printf("  %2zu function%s  p50 %7.2f ms   p99 %8.2f ms   (paper: %5.1f / %5.1f)\n",
                kLengths[i], kLengths[i] == 1 ? " " : "s", results.back().p50_ms,
                results.back().p99_ms, paper[i].median, paper[i].p99);
    bench::EmitJsonRow("fig6_txn_length",
                       std::string(label) + " " + std::to_string(kLengths[i]) + "f",
                       results.back().p50_ms, results.back().p99_ms, results.back().throughput_tps,
                       results.back().completed);
  }
  return results;
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
  harness.requests_per_client = static_cast<size_t>(GetEnvLong("AFT_BENCH_REQUESTS", 120));
  harness.check_anomalies = false;

  PrintTitle("Figure 6: transaction length, 1-10 functions (3 IOs each)");
  auto dynamo = RunSweep<SimDynamo>("DynamoDB", kPaperDynamo, harness);
  auto redis = RunSweep<SimRedis>("Redis", kPaperRedis, harness);

  PrintTitle("Shape checks");
  const double d_ratio = dynamo.back().p50_ms / dynamo.front().p50_ms;
  const double r_ratio = redis.back().p50_ms / redis.front().p50_ms;
  std::printf("  10f/1f growth: DynamoDB %.1fx (paper 6.2x), Redis %.1fx (paper 8.9x)\n",
              d_ratio, r_ratio);
  std::printf("  DynamoDB vs Redis gap: %.0f%% at 1 function (paper 59%%), %.0f%% at 10 "
              "(paper 13%%)\n",
              100 * (dynamo.front().p50_ms / redis.front().p50_ms - 1),
              100 * (dynamo.back().p50_ms / redis.back().p50_ms - 1));
  return 0;
}
