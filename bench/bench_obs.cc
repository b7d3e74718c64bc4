// Microbenchmarks for the observability layer itself: the per-event cost a
// metric or trace span adds to an instrumented hot path, single-threaded and
// under contention. These bound the overhead budget of src/obs/ — the commit
// path increments ~10 counters and observes 2-3 histograms per transaction,
// so instrument cost must stay in nanoseconds for the bench_net throughput
// gate to hold with instrumentation enabled.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

// Count heap allocations on the measuring thread (allocs/op columns).
#define AFT_BENCH_COUNT_ALLOCS
#include "bench/bench_common.h"
#include "src/common/clock.h"
#include "src/common/contention.h"
#include "src/common/histogram.h"
#include "src/common/mutex.h"
#include "src/core/aft_node.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/sim_dynamo.h"

namespace aft {
namespace {

void BM_CounterIncrement(benchmark::State& state) {
  static obs::Counter counter;
  for (auto _ : state) {
    counter.Increment();
  }
  if (state.thread_index() == 0) {
    benchmark::DoNotOptimize(counter.Value());
  }
}
// Threaded variants measure the sharded-lane design: contended increments
// should scale, not serialize on one cache line.
BENCHMARK(BM_CounterIncrement)->Threads(1)->Threads(4)->Threads(8);

void BM_GaugeAdd(benchmark::State& state) {
  static obs::Gauge gauge;
  for (auto _ : state) {
    gauge.Add(1.0);
  }
}
BENCHMARK(BM_GaugeAdd)->Threads(1)->Threads(4);

void BM_HistogramObserve(benchmark::State& state) {
  static obs::Histogram histogram(DefaultLatencyBoundariesMs());
  double v = 0.1;
  for (auto _ : state) {
    histogram.Observe(v);
    v = v < 400.0 ? v * 1.7 : 0.1;  // walk the buckets
  }
}
BENCHMARK(BM_HistogramObserve)->Threads(1)->Threads(4)->Threads(8);

void BM_RegistryLookup(benchmark::State& state) {
  // The anti-pattern (lookup per event instead of caching the pointer):
  // measured so the gap against BM_CounterIncrement stays documented.
  obs::MetricsRegistry registry;
  registry.GetCounter("bench_lookup_total", "x", {{"node", "aft-0"}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        registry.GetCounter("bench_lookup_total", "x", {{"node", "aft-0"}}));
  }
}
BENCHMARK(BM_RegistryLookup);

void BM_TraceSpanUnsampled(benchmark::State& state) {
  // The cost every un-traced transaction pays: must be ~free.
  const obs::TraceContext unsampled{};
  for (auto _ : state) {
    obs::TraceSpan span(unsampled, "Commit", "aft-0");
  }
}
BENCHMARK(BM_TraceSpanUnsampled);

void BM_TraceSpanSampled(benchmark::State& state) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetSampleEveryN(1);
  const obs::TraceContext sampled = tracer.StartTrace();
  for (auto _ : state) {
    obs::TraceSpan span(sampled, "Commit", "aft-0");
  }
  tracer.SetSampleEveryN(0);
  tracer.Clear();
}
BENCHMARK(BM_TraceSpanSampled);

void BM_Exposition(benchmark::State& state) {
  // Scrape-time render cost over a registry sized like a running node.
  obs::MetricsRegistry registry;
  const int families = static_cast<int>(state.range(0));
  for (int i = 0; i < families; ++i) {
    const std::string name = "bench_family_" + std::to_string(i) + "_total";
    registry.GetCounter(name, "bench", {{"node", "aft-0"}})->Increment(i);
  }
  registry.GetHistogram("bench_latency_ms", "bench", DefaultLatencyBoundariesMs())
      ->Observe(1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.Exposition());
  }
  state.SetLabel(std::to_string(families) + " families");
}
BENCHMARK(BM_Exposition)->Arg(16)->Arg(64)->Arg(256);

// ---- contention profiler overhead -------------------------------------------
// The three tiers a lock acquisition can sit in, so the cost of naming a
// mutex (and of turning the sampler on) stays measured: an unnamed Mutex is
// a plain std::mutex; a named one with sampling off pays one relaxed
// thread-local check per acquisition; a named one with SampleEveryN(1) times
// every acquisition through the try-lock-first path.
void BM_MutexLockUnnamed(benchmark::State& state) {
  static Mutex mu;
  for (auto _ : state) {
    MutexLock lock(mu);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MutexLockUnnamed)->Threads(1)->Threads(4);

void BM_MutexLockNamedUnsampled(benchmark::State& state) {
  static Mutex mu("bench.unsampled");
  if (state.thread_index() == 0) {
    contention::SetSampleEveryN(0);
  }
  for (auto _ : state) {
    MutexLock lock(mu);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MutexLockNamedUnsampled)->Threads(1)->Threads(4);

void BM_MutexLockNamedSampled(benchmark::State& state) {
  static Mutex mu("bench.sampled");
  if (state.thread_index() == 0) {
    contention::SetSampleEveryN(1);
  }
  for (auto _ : state) {
    MutexLock lock(mu);
    benchmark::ClobberMemory();
  }
  if (state.thread_index() == 0) {
    contention::SetSampleEveryN(0);
  }
}
BENCHMARK(BM_MutexLockNamedSampled)->Threads(1)->Threads(4);

// Allocations per instrumentation event, measured directly (outside the
// google-benchmark timing loop so the framework's own bookkeeping does not
// pollute the count) and emitted as JSON rows for BENCH_results.json. A
// counter increment and an unsampled span must be allocation-free; a sampled
// span may allocate (it records into the tracer's ring).
void ReportObsAllocRows() {
  constexpr int kOps = 10000;
  static obs::Counter counter;
  double counter_allocs = 0;
  {
    bench::AllocCountScope allocs;
    for (int i = 0; i < kOps; ++i) {
      counter.Increment();
    }
    counter_allocs = static_cast<double>(allocs.count()) / kOps;
  }
  const obs::TraceContext unsampled{};
  double unsampled_allocs = 0;
  {
    bench::AllocCountScope allocs;
    for (int i = 0; i < kOps; ++i) {
      obs::TraceSpan span(unsampled, "Commit", "aft-0");
    }
    unsampled_allocs = static_cast<double>(allocs.count()) / kOps;
  }
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetSampleEveryN(1);
  const obs::TraceContext sampled = tracer.StartTrace();
  double sampled_allocs = 0;
  {
    bench::AllocCountScope allocs;
    for (int i = 0; i < kOps; ++i) {
      obs::TraceSpan span(sampled, "Commit", "aft-0");
    }
    sampled_allocs = static_cast<double>(allocs.count()) / kOps;
  }
  tracer.SetSampleEveryN(0);
  tracer.Clear();
  std::printf("obs allocs/op: counter %.2f, span unsampled %.2f, span sampled %.2f\n",
              counter_allocs, unsampled_allocs, sampled_allocs);
  bench::EmitJsonRow("obs", "counter increment", 0, 0, 0, kOps,
                     bench::AllocsPerTxn(counter_allocs));
  bench::EmitJsonRow("obs", "span unsampled", 0, 0, 0, kOps,
                     bench::AllocsPerTxn(unsampled_allocs));
  bench::EmitJsonRow("obs", "span sampled", 0, 0, 0, kOps, bench::AllocsPerTxn(sampled_allocs));
}

// ---- attribution A/B --------------------------------------------------------
// The end-to-end cost of the per-stage commit decomposition itself: the same
// CPU-bound commit loop (instant simulated engine, so instrument cost is not
// hidden behind sleeps) with stage timing off, then on. tools/bench_gate.sh
// holds the on/off throughput ratio at >= 0.95 — "attribution is always on"
// only stays true while it costs < 5%.

// Zero-latency engine profile: measures the commit pipeline's CPU cost, not
// simulated round trips.
SimDynamoOptions InstantDynamoOptions() {
  SimDynamoOptions options;
  options.profile = EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero()};
  options.staleness = StalenessModel{};
  options.txn_call = LatencyModel::Zero();
  return options;
}

struct AbResult {
  double p50_ms = 0;
  double p99_ms = 0;
  double txn_per_s = 0;
  uint64_t committed = 0;
};

AbResult MeasureAttributionRun(const char* node_id, bool stage_timing) {
  // 4-op transactions (the paper's workloads write several keys per txn);
  // thread count stays at or below the core count so the A/B measures the
  // commit pipeline, not scheduler churn on an oversubscribed runner.
  const unsigned hw = std::thread::hardware_concurrency();
  const int kThreads = static_cast<int>(std::min(4u, hw > 0 ? hw : 1u));
  constexpr int kPutsPerTxn = 4;
  const long per_thread = bench::GetEnvLong("AFT_BENCH_OBS_TXNS", 2000);
  contention::SetStageTiming(stage_timing);
  RealClock clock(0.001);
  SimDynamo engine(clock, InstantDynamoOptions());
  AftNodeOptions options;
  options.service_cores = 0;
  AftNode node(node_id, engine, clock, options);
  AbResult result;
  if (!node.Start().ok()) {
    return result;
  }
  std::atomic<uint64_t> committed{0};
  obs::Histogram latency_ms(FineLatencyBoundariesMs());
  const auto wall_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&] {
        for (long i = 0; i < per_thread; ++i) {
          auto txid = node.StartTransaction();
          if (!txid.ok()) {
            continue;
          }
          bool put_ok = true;
          for (int k = 0; k < kPutsPerTxn && put_ok; ++k) {
            put_ok = node.Put(*txid, "k" + std::to_string((i * kPutsPerTxn + k) % 16), "v").ok();
          }
          if (!put_ok) {
            continue;
          }
          const auto commit_start = std::chrono::steady_clock::now();
          if (node.CommitTransaction(*txid).ok()) {
            committed.fetch_add(1, std::memory_order_relaxed);
            latency_ms.Observe(std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - commit_start)
                                   .count());
          }
        }
      });
    }
    for (auto& worker : workers) {
      worker.join();
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  node.Kill();
  result.committed = committed.load();
  result.p50_ms = latency_ms.Quantile(0.50);
  result.p99_ms = latency_ms.Quantile(0.99);
  result.txn_per_s = wall_s > 0 ? result.committed / wall_s : 0;
  return result;
}

void ReportAttributionAbRows() {
  // One discarded warm-up run (page-faults, lazy metric registration, heap
  // growth), then best-of-3 per config, interleaved so a noisy-neighbor
  // burst on the CI runner cannot land entirely on one side of the A/B.
  MeasureAttributionRun("bench-obs-attrib-warmup", true);
  constexpr int kReps = 3;
  AbResult off, on;
  // Each field takes its best (noise-floor) value across reps independently:
  // max throughput, min percentile — the cleanest window either side saw.
  auto fold = [](AbResult& best, const AbResult& rep) {
    if (best.committed == 0) {
      best = rep;
      return;
    }
    best.txn_per_s = std::max(best.txn_per_s, rep.txn_per_s);
    best.p50_ms = std::min(best.p50_ms, rep.p50_ms);
    best.p99_ms = std::min(best.p99_ms, rep.p99_ms);
  };
  for (int rep = 0; rep < kReps; ++rep) {
    fold(off, MeasureAttributionRun("bench-obs-attrib-off", false));
    fold(on, MeasureAttributionRun("bench-obs-attrib-on", true));
  }
  contention::SetStageTiming(true);  // ship default: attribution on
  const double ratio = off.txn_per_s > 0 ? on.txn_per_s / off.txn_per_s : 0;
  const double p50_ratio = off.p50_ms > 0 ? on.p50_ms / off.p50_ms : 0;
  std::printf(
      "attribution A/B: off %.0f txn/s (p50 %.4f ms), on %.0f txn/s (p50 %.4f ms), "
      "tput on/off x%.3f, p50 on/off x%.3f\n",
      off.txn_per_s, off.p50_ms, on.txn_per_s, on.p50_ms, ratio, p50_ratio);
  bench::EmitJsonRow("obs", "commit attribution off", off.p50_ms, off.p99_ms, off.txn_per_s,
                     off.committed);
  bench::EmitJsonRow("obs", "commit attribution on", on.p50_ms, on.p99_ms, on.txn_per_s,
                     on.committed);
}

}  // namespace
}  // namespace aft

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  aft::ReportObsAllocRows();
  aft::ReportAttributionAbRows();
  return 0;
}
