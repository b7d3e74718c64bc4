// Figure 2: IO latency of 1 / 5 / 10 writes from a single client (no FaaS),
// comparing direct DynamoDB access (sequential and batched) against AFT's
// commit protocol (client sending sequential puts, or one batched request).
//
// Paper takeaways this bench reproduces:
//  * DynamoDB Sequential grows ~linearly with the number of writes; its tail
//    grows super-linearly.
//  * DynamoDB Batch grows much more slowly (~2x from 1 to 10 writes).
//  * AFT Sequential beats DynamoDB Sequential at 5+ writes because the
//    commit protocol batches the storage writes.
//  * AFT Batch tracks DynamoDB Batch with a small fixed overhead (the extra
//    network hop + the commit record write — "about 6ms" in the paper).

#include <functional>
#include <vector>

#include "bench/bench_common.h"
#include "src/cluster/aft_client.h"
#include "src/cluster/load_balancer.h"
#include "src/common/histogram.h"
#include "src/core/aft_node.h"
#include "src/obs/metrics.h"
#include "src/storage/sim_dynamo.h"
#include "src/workload/workload.h"

namespace aft {
namespace {

using bench::BenchClock;

constexpr size_t kValueBytes = 4096;

struct LatencyRow {
  double median;
  double p99;
};

// Reference numbers read off Figure 2 (medians / 99th percentiles, ms).
struct PaperFig2 {
  LatencyRow aft_seq, aft_batch, ddb_seq, ddb_batch;
};
const PaperFig2 kPaper[] = {
    {{10.2, 17.2}, {9.9, 15.3}, {3.03, 5.45}, {3.08, 7.49}},   // 1 write
    {{13.4, 28.6}, {10.9, 18.3}, {14.9, 580}, {4.65, 11.7}},   // 5 writes
    {{17.6, 56.9}, {12.3, 25.5}, {35.6, 696}, {6.82, 15.2}},   // 10 writes
};

// Measured median and p99 of one configuration, in simulated ms.
LatencyRow Measure(long requests, const std::function<void(size_t)>& one_request) {
  obs::Histogram latency(FineLatencyBoundariesMs());
  Clock& clock = BenchClock();
  for (long i = 0; i < requests; ++i) {
    const TimePoint begin = clock.Now();
    one_request(static_cast<size_t>(i));
    latency.Observe(ToMillis(clock.Now() - begin));
  }
  return {latency.Quantile(0.50), latency.Quantile(0.99)};
}

void PrintRow(const char* name, const LatencyRow& measured, const LatencyRow& paper) {
  std::printf("  %-22s median %7.2f ms   p99 %8.2f ms   (paper: %6.2f / %6.2f)\n", name,
              measured.median, measured.p99, paper.median, paper.p99);
}

}  // namespace
}  // namespace aft

int main() {
  using namespace aft;
  using namespace aft::bench;

  const long requests = GetEnvLong("AFT_BENCH_REQUESTS", 300);
  RealClock& clock = BenchClock();

  PrintTitle("Figure 2: IO latency, single client writing 4KB objects to DynamoDB");
  PrintNote("requests per configuration: " + std::to_string(requests));
  std::printf("  time scale: %.3f (latencies reported in simulated ms)\n", clock.scale());

  SimDynamo storage(clock);
  AftNode node("fig2", storage, clock);
  if (!node.Start().ok()) {
    return 1;
  }
  LoadBalancer balancer;
  balancer.AddNode(&node);
  AftClient client(balancer, clock);

  WorkloadSpec spec;
  spec.value_bytes = kValueBytes;
  const std::string payload = MakePayload(spec, 1);

  const size_t write_counts[] = {1, 5, 10};
  for (size_t wc_index = 0; wc_index < 3; ++wc_index) {
    const size_t num_writes = write_counts[wc_index];
    std::printf("\n-- %zu write%s --\n", num_writes, num_writes == 1 ? "" : "s");

    // DynamoDB Sequential: one PutItem per write.
    auto ddb_seq = Measure(requests, [&](size_t r) {
      for (size_t w = 0; w < num_writes; ++w) {
        (void)storage.Put("seq" + std::to_string(r % 64) + "_" + std::to_string(w), payload);
      }
    });

    // DynamoDB Batch: one BatchWriteItem.
    auto ddb_batch = Measure(requests, [&](size_t r) {
      std::vector<WriteOp> ops;
      for (size_t w = 0; w < num_writes; ++w) {
        ops.push_back(WriteOp{"bat" + std::to_string(r % 64) + "_" + std::to_string(w), payload});
      }
      (void)storage.BatchPut(ops);
    });

    // AFT Sequential: the client sends each put separately, then commits.
    auto aft_seq = Measure(requests, [&](size_t r) {
      auto session = client.StartTransaction();
      for (size_t w = 0; w < num_writes; ++w) {
        (void)client.Put(*session, "aseq" + std::to_string(r % 64) + "_" + std::to_string(w),
                         payload);
      }
      (void)client.Commit(*session);
    });

    // AFT Batch: all writes in a single request to the shim, then commit.
    auto aft_batch = Measure(requests, [&](size_t r) {
      auto session = client.StartTransaction();
      std::vector<WriteOp> ops;
      for (size_t w = 0; w < num_writes; ++w) {
        ops.push_back(
            WriteOp{"abat" + std::to_string(r % 64) + "_" + std::to_string(w), payload});
      }
      (void)client.PutBatch(*session, ops);
      (void)client.Commit(*session);
    });

    const PaperFig2& paper = kPaper[wc_index];
    PrintRow("Aft Sequential", aft_seq, paper.aft_seq);
    PrintRow("Aft Batch", aft_batch, paper.aft_batch);
    PrintRow("DynamoDB Sequential", ddb_seq, paper.ddb_seq);
    PrintRow("DynamoDB Batch", ddb_batch, paper.ddb_batch);
  }

  PrintTitle("Shape checks");
  PrintNote("expected: AFT Sequential < DynamoDB Sequential at 5+ writes;");
  PrintNote("expected: AFT Batch ~= DynamoDB Batch + small fixed overhead;");
  PrintNote("expected: DynamoDB Sequential grows ~linearly with write count.");
  return 0;
}
