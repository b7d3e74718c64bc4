// Parallel-I/O microbench: commit-flush latency as the write set grows, and
// the multi-key read path, over SimS3 — the engine with no batch API, where
// per-op latency stacks worst. tools/bench.sh runs this before and after
// changes to the storage I/O layer; the `S3 commit Nw` rows are the ones the
// parallel-flush acceptance criterion compares.
//
// The node runs with service throttling off and the data cache disabled so
// the measured time is (almost) purely storage round-trips.

#include <cstdlib>
#include <string>

#include "bench/bench_common.h"
#include "src/common/histogram.h"
#include "src/core/aft_node.h"
#include "src/obs/metrics.h"
#include "src/storage/sim_s3.h"

namespace aft {
namespace {

using bench::BenchClock;
using bench::EmitJsonRow;
using bench::GetEnvLong;
using bench::PrintTitle;

constexpr size_t kReadKeys = 5;

std::string Key(size_t i) { return "pio" + std::to_string(i); }

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "bench_parallel_io: %s: %s\n", what, s.ToString().c_str());
    std::abort();
  }
}

void RunCommitSweep(Clock& clock, long reps) {
  std::printf("\n-- commit latency vs write-set size (4KB values) --\n");
  SimS3 engine(clock);
  AftNodeOptions options;
  options.service_cores = 0;
  AftNode node("bench-commit", engine, clock, options);
  Check(node.Start(), "Start");
  const std::string value(4096, 'x');
  for (size_t writes : {1, 2, 5, 10, 20}) {
    obs::Histogram lat(FineLatencyBoundariesMs());
    for (long r = 0; r < reps; ++r) {
      Result<Uuid> txid = node.StartTransaction();
      Check(txid.status(), "StartTransaction");
      for (size_t k = 0; k < writes; ++k) {
        Check(node.Put(txid.value(), Key(k), value), "Put");
      }
      const TimePoint start = clock.Now();
      Result<TxnId> commit = node.CommitTransaction(txid.value());
      lat.Observe(ToMillis(clock.Now() - start));
      Check(commit.status(), "CommitTransaction");
    }
    const double p50 = lat.Quantile(0.50);
    const double p99 = lat.Quantile(0.99);
    std::printf("  %2zu writes   commit p50 %7.2f ms   p99 %8.2f ms\n", writes, p50, p99);
    EmitJsonRow("parallel_io", "S3 commit " + std::to_string(writes) + "w", p50, p99, 0.0,
                static_cast<uint64_t>(reps));
  }
}

void RunReadSweep(Clock& clock, long reps) {
  std::printf("\n-- read latency: %zu keys per txn, cold cache --\n", kReadKeys);
  SimS3 engine(clock);
  AftNodeOptions options;
  options.service_cores = 0;
  options.data_cache_bytes = 0;
  AftNode node("bench-read", engine, clock, options);
  Check(node.Start(), "Start");
  {
    Result<Uuid> txid = node.StartTransaction();
    Check(txid.status(), "StartTransaction");
    for (size_t k = 0; k < kReadKeys; ++k) {
      Check(node.Put(txid.value(), Key(k), std::string(4096, 's')), "Put");
    }
    Check(node.CommitTransaction(txid.value()).status(), "seed commit");
  }
  obs::Histogram lat(FineLatencyBoundariesMs());
  for (long r = 0; r < reps; ++r) {
    Result<Uuid> txid = node.StartTransaction();
    Check(txid.status(), "StartTransaction");
    const TimePoint start = clock.Now();
    for (size_t k = 0; k < kReadKeys; ++k) {
      Result<AftNode::VersionedRead> read = node.GetVersioned(txid.value(), Key(k));
      Check(read.status(), "GetVersioned");
    }
    lat.Observe(ToMillis(clock.Now() - start));
    Check(node.AbortTransaction(txid.value()), "AbortTransaction");
  }
  std::printf("  seq get x%zu  p50 %7.2f ms   p99 %8.2f ms\n", kReadKeys, lat.Quantile(0.50),
              lat.Quantile(0.99));
  EmitJsonRow("parallel_io", "S3 seq-get " + std::to_string(kReadKeys) + "k",
              lat.Quantile(0.50), lat.Quantile(0.99), 0.0, static_cast<uint64_t>(reps));

  // Same keys through the batched read API: one MultiGet per transaction,
  // payload fetches fanned out on the IoExecutor.
  std::vector<std::string> keys;
  for (size_t k = 0; k < kReadKeys; ++k) {
    keys.push_back(Key(k));
  }
  obs::Histogram multi(FineLatencyBoundariesMs());
  for (long r = 0; r < reps; ++r) {
    Result<Uuid> txid = node.StartTransaction();
    Check(txid.status(), "StartTransaction");
    const TimePoint start = clock.Now();
    Result<std::vector<AftNode::VersionedRead>> reads = node.MultiGet(txid.value(), keys);
    multi.Observe(ToMillis(clock.Now() - start));
    Check(reads.status(), "MultiGet");
    Check(node.AbortTransaction(txid.value()), "AbortTransaction");
  }
  std::printf("  multiget x%zu p50 %7.2f ms   p99 %8.2f ms\n", kReadKeys,
              multi.Quantile(0.50), multi.Quantile(0.99));
  EmitJsonRow("parallel_io", "S3 multiget " + std::to_string(kReadKeys) + "k",
              multi.Quantile(0.50), multi.Quantile(0.99), 0.0, static_cast<uint64_t>(reps));
}

}  // namespace
}  // namespace aft

int main() {
  using namespace aft;
  using namespace aft::bench;

  // Latency bench: pure sleeps, moderate scale (same as fig3/fig6).
  RealClock& clock = BenchClock(/*default_scale=*/0.25, /*default_spin_us=*/0);
  const long reps = GetEnvLong("AFT_BENCH_REQUESTS", 30);

  PrintTitle("Parallel storage I/O: SimS3 commit flush + multi-key reads");
  RunCommitSweep(clock, reps);
  RunReadSweep(clock, reps);
  return 0;
}
