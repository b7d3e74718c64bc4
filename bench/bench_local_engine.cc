// LocalEngine microbench: the durable WAL-backed engine under REAL I/O.
//
// Unlike the simulated-engine benches, every number here is wall-clock
// against an actual directory of log files — writev, fdatasync, pread. Rows:
//
//   * put / get            — raw engine op latency (one durable record per
//                            put; one pread per get).
//   * local commit         — a full AFT CommitTransaction over the engine:
//                            the §3.3 barrier (version flush, fsync, commit
//                            record, fsync) on real storage. Carries
//                            allocs_per_txn, gated by tools/bench_gate.sh
//                            just like the in-proc sim row — the durable
//                            path must stay allocation-free too.
//   * group commit Nw      — N closed-loop writers; the fsyncs/txn column
//                            shows the group-commit latch sharing one
//                            fdatasync across concurrent writers.
//   * reopen replay        — LocalEngine::Open over the directory the rows
//                            above produced: crash-recovery replay speed.
//
// Numbers depend on what backs the data dir (tmpfs vs a real disk — fsync on
// tmpfs is nearly free). The alloc column is machine-independent either way.
//
// Knobs: AFT_BENCH_REQUESTS (latency reps), AFT_BENCH_TPUT_OPS (per-writer
// ops in the group-commit sweep), AFT_BENCH_DATA_DIR (data directory; default
// a fresh /tmp mkdtemp, removed on exit).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

// Count heap allocations on the measuring thread (allocs/txn column).
#define AFT_BENCH_COUNT_ALLOCS
#include "bench/bench_common.h"
#include "bench/stage_breakdown.h"
#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/core/aft_node.h"
#include "src/obs/metrics.h"
#include "src/storage/local_engine.h"

namespace aft {
namespace {

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "bench_local_engine: %s: %s\n", what, s.ToString().c_str());
    std::abort();
  }
}

double WallMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// Raw engine ops: one durable put / one pread get per iteration.
void RunRawOps(LocalEngine& engine, long reps) {
  const std::string value(128, 'v');
  obs::Histogram put_lat(FineLatencyBoundariesMs());
  for (long r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    Check(engine.Put("raw" + std::to_string(r % 64), value), "Put");
    put_lat.Observe(WallMs(start));
  }
  obs::Histogram get_lat(FineLatencyBoundariesMs());
  for (long r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    Check(engine.Get("raw" + std::to_string(r % 64)).status(), "Get");
    get_lat.Observe(WallMs(start));
  }
  std::printf("  put (128 B, durable)  p50 %7.3f ms   p99 %7.3f ms\n", put_lat.Quantile(0.50),
              put_lat.Quantile(0.99));
  std::printf("  get (pread)           p50 %7.3f ms   p99 %7.3f ms\n", get_lat.Quantile(0.50),
              get_lat.Quantile(0.99));
  bench::EmitJsonRow("local_engine", "put", put_lat.Quantile(0.50), put_lat.Quantile(0.99), 0.0,
                     static_cast<uint64_t>(reps));
  bench::EmitJsonRow("local_engine", "get", get_lat.Quantile(0.50), get_lat.Quantile(0.99), 0.0,
                     static_cast<uint64_t>(reps));
}

// One commit (1 put) per iteration through a real AftNode. Mirrors
// bench_net's "inproc commit" row, but the flush underneath is writev +
// fdatasync instead of a simulated map. Returns allocs/txn for the gate.
double RunCommit(AftNode& node, long reps) {
  // Uncounted warmup (same rationale as bench_net): freelist growth, index
  // rehash and interner inserts are one-time costs, not per-commit costs.
  for (long r = 0; r < 32; ++r) {
    auto txid = node.StartTransaction();
    Check(txid.status(), "StartTransaction");
    Check(node.Put(*txid, "commit-key", "v"), "Put");
    Check(node.CommitTransaction(*txid).status(), "Commit");
  }
  obs::Histogram lat(FineLatencyBoundariesMs());
  uint64_t commit_allocs = 0;
  for (long r = 0; r < reps; ++r) {
    auto txid = node.StartTransaction();
    Check(txid.status(), "StartTransaction");
    Check(node.Put(*txid, "commit-key", "v"), "Put");
    const auto start = std::chrono::steady_clock::now();
    {
      bench::AllocCountScope allocs;
      Check(node.CommitTransaction(*txid).status(), "Commit");
      commit_allocs += allocs.count();
    }
    lat.Observe(WallMs(start));
  }
  const double p50 = lat.Quantile(0.50);
  const double p99 = lat.Quantile(0.99);
  const double allocs_per_txn = static_cast<double>(commit_allocs) / reps;
  std::printf("  local commit          p50 %7.3f ms   p99 %7.3f ms   %6.1f allocs/txn\n", p50,
              p99, allocs_per_txn);
  bench::EmitJsonRow("local_engine", "local commit", p50, p99, 0.0, static_cast<uint64_t>(reps),
                     bench::AllocsPerTxn(allocs_per_txn));
  return allocs_per_txn;
}

// N closed-loop writers hammering Put: the group-commit latch should retire
// many writers per fdatasync once there is real concurrency.
void RunGroupCommitSweep(LocalEngine& engine, long ops_per_writer) {
  for (int writers : {1, 4, 16}) {
    const Wal::Stats before = engine.wal_stats();
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    obs::Histogram lat(FineLatencyBoundariesMs());
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        const std::string value(128, 'g');
        for (long i = 0; i < ops_per_writer; ++i) {
          const auto op_start = std::chrono::steady_clock::now();
          Check(engine.Put("w" + std::to_string(w) + "-" + std::to_string(i), value), "Put");
          lat.Observe(WallMs(op_start));
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    const double elapsed_ms = WallMs(start);
    const Wal::Stats after = engine.wal_stats();
    const uint64_t ops = static_cast<uint64_t>(writers) * ops_per_writer;
    const uint64_t fsyncs = after.fsyncs - before.fsyncs;
    const double tput = elapsed_ms > 0 ? 1000.0 * ops / elapsed_ms : 0;
    const double p50 = lat.Quantile(0.50);
    const double p99 = lat.Quantile(0.99);
    std::printf("  group commit %2dw      p50 %7.3f ms   p99 %7.3f ms   %8.0f put/s   %.2f fsyncs/txn\n",
                writers, p50, p99, tput, ops > 0 ? static_cast<double>(fsyncs) / ops : 0);
    bench::EmitJsonRow("local_engine", "group commit " + std::to_string(writers) + "w", p50, p99,
                       tput, ops);
  }
}

// N closed-loop committers through ONE AftNode over the engine: full AFT
// transactions instead of raw puts. Each commit is one WAL append carrying
// its data versions AND its commit record (LocalEngine::Commit); the WAL's
// group-commit latch (src/storage/wal.h) lets one fdatasync acknowledge
// every append that landed before it, so fsyncs/txn falls below 1 as
// writers are added, the same way it does for the raw puts above.
void RunAftCommitSweep(LocalEngine& engine, long ops_per_writer) {
  RealClock& clock = RealClock::Default();
  AftNodeOptions node_options;
  node_options.service_cores = 0;  // Measure real I/O fusion, not simulated CPU.
  AftNode node("bench-local-batch", engine, clock, node_options);
  Check(node.Start(), "batch node Start");
  bench::StageBreakdown breakdown("local_engine", "bench-local-batch");
  for (int writers : {1, 4, 16}) {
    const Wal::Stats before = engine.wal_stats();
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    obs::Histogram lat(FineLatencyBoundariesMs());
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        const std::string value(128, 'a');
        for (long i = 0; i < ops_per_writer; ++i) {
          const auto op_start = std::chrono::steady_clock::now();
          auto txid = node.StartTransaction();
          Check(txid.status(), "sweep StartTransaction");
          Check(node.Put(*txid, "aft-w" + std::to_string(w), value), "sweep Put");
          Check(node.CommitTransaction(*txid).status(), "sweep Commit");
          lat.Observe(WallMs(op_start));
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    const double elapsed_ms = WallMs(start);
    const Wal::Stats after = engine.wal_stats();
    const uint64_t ops = static_cast<uint64_t>(writers) * ops_per_writer;
    const uint64_t fsyncs = after.fsyncs - before.fsyncs;
    const double tput = elapsed_ms > 0 ? 1000.0 * ops / elapsed_ms : 0;
    const double fsyncs_per_txn = ops > 0 ? static_cast<double>(fsyncs) / ops : 0;
    const double p50 = lat.Quantile(0.50);
    const double p99 = lat.Quantile(0.99);
    std::printf(
        "  aft commit %2dw        p50 %7.3f ms   p99 %7.3f ms   %8.0f txn/s   %.3f fsyncs/txn\n",
        writers, p50, p99, tput, fsyncs_per_txn);
    bench::EmitJsonRow("local_engine", "aft commit " + std::to_string(writers) + "w", p50, p99,
                       tput, ops, bench::FsyncsPerTxn(fsyncs_per_txn));
    breakdown.Report("aft commit " + std::to_string(writers) + "w");
  }
}

// Crash-recovery speed: reopen the directory every row above wrote into and
// time the full replay (index rebuild included).
void RunReopenReplay(const std::string& dir) {
  const auto start = std::chrono::steady_clock::now();
  auto engine = LocalEngine::Open(dir);
  Check(engine.status(), "reopen");
  const double ms = WallMs(start);
  const LocalEngine::FileStats stats = (*engine)->file_stats();
  std::printf("  reopen replay         %7.3f ms   (%zu files, %.1f MiB)\n", ms, stats.files,
              static_cast<double>(stats.total_bytes) / (1 << 20));
  bench::EmitJsonRow("local_engine", "reopen replay", ms, ms, 0.0, 1);
}

}  // namespace
}  // namespace aft

int main() {
  using namespace aft;

  const long reps = bench::GetEnvLong("AFT_BENCH_REQUESTS", 400);
  const long tput_ops = bench::GetEnvLong("AFT_BENCH_TPUT_OPS", reps < 200 ? reps : 200);
  bench::PrintTitle("LocalEngine: durable WAL engine under real I/O (wall-clock ms)");
  std::printf("  %ld requests per latency row, %ld ops/writer in the sweep\n", reps, tput_ops);

  std::string dir;
  bool remove_dir = false;
  if (const char* env = std::getenv("AFT_BENCH_DATA_DIR"); env != nullptr && env[0] != '\0') {
    dir = env;
  } else {
    char tmpl[] = "/tmp/aft_bench_local_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) {
      std::fprintf(stderr, "bench_local_engine: mkdtemp failed\n");
      return 1;
    }
    dir = made;
    remove_dir = true;
  }
  std::printf("  data dir: %s\n", dir.c_str());

  double allocs_per_txn = 0;
  {
    auto engine = LocalEngine::Open(dir);
    Check(engine.status(), "Open");
    RunRawOps(**engine, reps);
    {
      RealClock& clock = RealClock::Default();
      AftNode node("bench-local", **engine, clock);
      Check(node.Start(), "node Start");
      bench::StageBreakdown breakdown("local_engine", "bench-local");
      // Floor the alloc-measured loop at 64 commits even in smoke mode
      // (AFT_BENCH_REQUESTS=3): the handful of one-time pool/freelist
      // growth allocations right after warmup would otherwise swamp a
      // 3-sample per-txn average. Commits are sub-millisecond, so this
      // costs ~25 ms.
      allocs_per_txn = RunCommit(node, std::max<long>(reps, 64));
      breakdown.Report("local commit");
    }
    RunGroupCommitSweep(**engine, tput_ops);
    RunAftCommitSweep(**engine, tput_ops);
  }
  RunReopenReplay(dir);

  if (remove_dir) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  // In-binary ceiling, same value tools/bench_gate.sh enforces on the JSON:
  // a reintroduced per-commit allocation on the durable path fails the bench
  // run itself, not just the gate.
  const double ceiling = bench::GetEnvDouble("AFT_BENCH_MAX_ALLOCS", 8.0);
  if (allocs_per_txn > ceiling) {
    std::fprintf(stderr,
                 "bench_local_engine: FAIL — %.1f allocations/txn on the local commit path "
                 "exceeds the %.1f ceiling\n",
                 allocs_per_txn, ceiling);
    return 1;
  }
  return 0;
}
