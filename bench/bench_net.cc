// Transport microbench: what does the real TCP boundary cost?
//
// Part 1 (latency): runs the same commit and MultiGet workloads twice —
// directly against an AftNode (in-proc, the original call path) and through
// AftServiceServer + RemoteAftClient over loopback TCP (framing, CRC, two
// socket hops per op) — and reports p50/p99 per path.
//
// Part 2 (throughput): closed-loop multi-client sweep at 1/4/16/64 client
// threads against three transport configurations:
//   * event    — epoll event-loop server, pooled + pipelined client;
//   * thread   — thread-per-connection server, pooled + pipelined client;
//   * baseline — thread-per-connection server, ONE connection, single-flight
//                (the pre-pipelining transport; the acceptance yardstick).
// Each row reports ops/sec plus per-op p50/p99.
//
// Storage latencies are zeroed so the rows isolate pure shim + wire overhead,
// and all numbers here are WALL-CLOCK milliseconds (the wire is real
// hardware; the simulated time scale does not apply to it).
//
// Knobs: AFT_BENCH_REQUESTS (latency reps), AFT_BENCH_TPUT_OPS (closed-loop
// ops per client; defaults to min(AFT_BENCH_REQUESTS, 200) so --smoke stays
// fast).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

// Count heap allocations on the measuring thread (allocs/txn columns).
#define AFT_BENCH_COUNT_ALLOCS
#include "bench/bench_common.h"
#include "bench/stage_breakdown.h"
#include "src/common/histogram.h"
#include "src/core/aft_node.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/storage/sim_dynamo.h"

namespace aft {
namespace {

using bench::BenchClock;
using bench::EmitJsonRow;
using bench::GetEnvLong;
using bench::PrintTitle;

SimDynamoOptions InstantDynamo() {
  SimDynamoOptions options;
  options.profile = EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero()};
  options.staleness = StalenessModel{};
  options.txn_call = LatencyModel::Zero();
  return options;
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "bench_net: %s: %s\n", what, s.ToString().c_str());
    std::abort();
  }
}

double WallMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

std::string Key(size_t i) { return "net" + std::to_string(i); }

// One commit (1 put) per iteration, in-proc. The alloc column counts heap
// allocations made by the committing thread inside CommitTransaction — the
// §3.3 commit path itself, the number the bench gate holds a ceiling on.
// On this simulated engine the commit writes one object, the record with
// the payload inside it. A second
// row, "inproc put+commit", counts the allocations of both calls, so work
// moved from the commit into Put cannot pass for a saving.
void RunInProcCommit(AftNode& node, long reps) {
  // Uncounted warmup: segment-freelist growth, version-index rehash and
  // key-interner inserts are one-time costs, not per-commit costs — without
  // this, short --smoke runs (3 reps) bill them to the measured
  // transactions and the allocation-ceiling gate jitters.
  for (long r = 0; r < 32; ++r) {
    auto txid = node.StartTransaction();
    Check(txid.status(), "StartTransaction");
    Check(node.Put(*txid, Key(0), "v"), "Put");
    Check(node.CommitTransaction(*txid).status(), "Commit");
  }
  obs::Histogram lat(FineLatencyBoundariesMs());
  obs::Histogram put_commit_lat(FineLatencyBoundariesMs());
  uint64_t commit_allocs = 0;
  uint64_t put_allocs = 0;
  for (long r = 0; r < reps; ++r) {
    auto txid = node.StartTransaction();
    Check(txid.status(), "StartTransaction");
    const auto put_start = std::chrono::steady_clock::now();
    {
      bench::AllocCountScope allocs;
      Check(node.Put(*txid, Key(0), "v"), "Put");
      put_allocs += allocs.count();
    }
    const auto start = std::chrono::steady_clock::now();
    {
      bench::AllocCountScope allocs;
      Check(node.CommitTransaction(*txid).status(), "Commit");
      commit_allocs += allocs.count();
    }
    lat.Observe(WallMs(start));
    put_commit_lat.Observe(WallMs(put_start));
  }
  const double allocs_per_txn = static_cast<double>(commit_allocs) / reps;
  std::printf("  in-proc commit        p50 %7.3f ms   p99 %7.3f ms   %6.1f allocs/txn\n",
              lat.Quantile(0.50), lat.Quantile(0.99), allocs_per_txn);
  EmitJsonRow("net", "inproc commit", lat.Quantile(0.50), lat.Quantile(0.99), 0.0,
              static_cast<uint64_t>(reps), bench::AllocsPerTxn(allocs_per_txn));
  const double put_commit_allocs_per_txn =
      static_cast<double>(put_allocs + commit_allocs) / reps;
  std::printf("  in-proc put+commit    p50 %7.3f ms   p99 %7.3f ms   %6.1f allocs/txn\n",
              put_commit_lat.Quantile(0.50), put_commit_lat.Quantile(0.99),
              put_commit_allocs_per_txn);
  EmitJsonRow("net", "inproc put+commit", put_commit_lat.Quantile(0.50),
              put_commit_lat.Quantile(0.99), 0.0, static_cast<uint64_t>(reps),
              bench::AllocsPerTxn(put_commit_allocs_per_txn));
}

// Same workload over loopback TCP. The alloc column here is the CLIENT-side
// cost of one commit RPC (serialize + frame + response decode); the server
// side commits on its own threads and is covered by the in-proc row.
void RunTcpCommit(net::RemoteAftClient& client, long reps) {
  // Same uncounted warmup as the in-proc row: the client's first calls grow
  // its scratch writers and connection-pool state.
  for (long r = 0; r < 32; ++r) {
    auto session = client.StartTransaction();
    Check(session.status(), "StartTransaction");
    Check(client.Put(*session, Key(0), "v"), "Put");
    Check(client.Commit(*session).status(), "Commit");
  }
  obs::Histogram lat(FineLatencyBoundariesMs());
  uint64_t commit_allocs = 0;
  for (long r = 0; r < reps; ++r) {
    auto session = client.StartTransaction();
    Check(session.status(), "StartTransaction");
    Check(client.Put(*session, Key(0), "v"), "Put");
    const auto start = std::chrono::steady_clock::now();
    {
      bench::AllocCountScope allocs;
      Check(client.Commit(*session).status(), "Commit");
      commit_allocs += allocs.count();
    }
    lat.Observe(WallMs(start));
  }
  const double allocs_per_txn = static_cast<double>(commit_allocs) / reps;
  std::printf("  loopback-TCP commit   p50 %7.3f ms   p99 %7.3f ms   %6.1f allocs/txn\n",
              lat.Quantile(0.50), lat.Quantile(0.99), allocs_per_txn);
  EmitJsonRow("net", "tcp commit", lat.Quantile(0.50), lat.Quantile(0.99), 0.0,
              static_cast<uint64_t>(reps), bench::AllocsPerTxn(allocs_per_txn));
}

// MultiGet fan-out: one request, `keys` keys, both paths.
void RunMultiGet(AftNode& node, net::RemoteAftClient& client, size_t keys, long reps) {
  std::vector<std::string> names;
  for (size_t i = 0; i < keys; ++i) {
    names.push_back(Key(i));
  }
  obs::Histogram inproc(FineLatencyBoundariesMs());
  for (long r = 0; r < reps; ++r) {
    auto txid = node.StartTransaction();
    Check(txid.status(), "StartTransaction");
    const auto start = std::chrono::steady_clock::now();
    Check(node.MultiGet(*txid, names).status(), "MultiGet");
    inproc.Observe(WallMs(start));
    Check(node.AbortTransaction(*txid), "Abort");
  }
  obs::Histogram tcp(FineLatencyBoundariesMs());
  for (long r = 0; r < reps; ++r) {
    auto session = client.StartTransaction();
    Check(session.status(), "StartTransaction");
    const auto start = std::chrono::steady_clock::now();
    Check(client.MultiGet(*session, names).status(), "MultiGet");
    tcp.Observe(WallMs(start));
    Check(client.Abort(*session), "Abort");
  }
  std::printf("  multiget %2zu keys      in-proc p50 %7.3f ms   tcp p50 %7.3f ms   tcp p99 %7.3f ms\n",
              keys, inproc.Quantile(0.50), tcp.Quantile(0.50), tcp.Quantile(0.99));
  EmitJsonRow("net", "inproc multiget " + std::to_string(keys) + "k", inproc.Quantile(0.50),
              inproc.Quantile(0.99), 0.0, static_cast<uint64_t>(reps));
  EmitJsonRow("net", "tcp multiget " + std::to_string(keys) + "k", tcp.Quantile(0.50),
              tcp.Quantile(0.99), 0.0, static_cast<uint64_t>(reps));
}

// ---------------------------------------------------------------------------
// Closed-loop throughput sweep.

struct TputConfig {
  const char* name;                 // row label
  net::ServerThreading threading;   // server side
  size_t connections_per_endpoint;  // client pool width
  size_t max_inflight;              // client pipelining depth
};

// One closed-loop run: `clients` threads, each issuing `ops_per_client`
// operations back-to-back (`fn(c)` runs client c and observes each op's
// latency into the row's shared histogram); *elapsed_ms gets the wall clock
// of the whole run (threads started to threads joined).
template <typename PerThreadFn>
void RunClosedLoop(size_t clients, double* elapsed_ms, PerThreadFn fn) {
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto start = std::chrono::steady_clock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([c, &fn] { fn(c); });
  }
  for (auto& t : threads) {
    t.join();
  }
  *elapsed_ms = WallMs(start);
}

void RunThroughputConfig(AftNode& node, const TputConfig& cfg, long ops_per_client,
                         const std::vector<std::string>& keys) {
  net::AftServiceServerOptions server_options;
  server_options.port = 0;
  server_options.threading = cfg.threading;
  net::AftServiceServer server(node, server_options);
  Check(server.Start(), "tput server Start");

  net::RemoteAftClientOptions client_options;
  client_options.connections_per_endpoint = cfg.connections_per_endpoint;
  client_options.max_inflight = cfg.max_inflight;
  net::RemoteAftClient client({server.endpoint()}, client_options);

  std::printf("  --- %s (server=%s, pool=%zu, inflight=%zu) ---\n", cfg.name,
              cfg.threading == net::ServerThreading::kEventLoop ? "event-loop" : "thread-per-conn",
              cfg.connections_per_endpoint, cfg.max_inflight);

  for (size_t clients : {1u, 4u, 16u, 64u}) {
    const uint64_t total_ops = static_cast<uint64_t>(clients) * ops_per_client;

    // Commit workload: each op is one full transaction (start / put / commit).
    double commit_ms = 0;
    obs::Histogram commit_lat(FineLatencyBoundariesMs());
    RunClosedLoop(clients, &commit_ms, [&](size_t c) {
      for (long r = 0; r < ops_per_client; ++r) {
        const auto op_start = std::chrono::steady_clock::now();
        auto session = client.StartTransaction();
        Check(session.status(), "tput StartTransaction");
        Check(client.Put(*session, Key(c % keys.size()), "v"), "tput Put");
        Check(client.Commit(*session).status(), "tput Commit");
        commit_lat.Observe(WallMs(op_start));
      }
    });
    const double commit_ops_sec = total_ops / (commit_ms / 1000.0);
    std::printf("  %-8s %2zu clients  commit   %9.0f ops/s   p50 %7.3f ms   p99 %7.3f ms\n",
                cfg.name, clients, commit_ops_sec, commit_lat.Quantile(0.50),
                commit_lat.Quantile(0.99));
    EmitJsonRow("net", std::string("tput commit ") + cfg.name + " " + std::to_string(clients) + "c",
                commit_lat.Quantile(0.50), commit_lat.Quantile(0.99), commit_ops_sec, total_ops);

    // MultiGet workload: one long-lived txn per client, MultiGet per op.
    double mget_ms = 0;
    obs::Histogram mget_lat(FineLatencyBoundariesMs());
    RunClosedLoop(clients, &mget_ms, [&](size_t) {
      auto session = client.StartTransaction();
      Check(session.status(), "tput mget StartTransaction");
      for (long r = 0; r < ops_per_client; ++r) {
        const auto op_start = std::chrono::steady_clock::now();
        Check(client.MultiGet(*session, keys).status(), "tput MultiGet");
        mget_lat.Observe(WallMs(op_start));
      }
      Check(client.Abort(*session), "tput mget Abort");
    });
    const double mget_ops_sec = total_ops / (mget_ms / 1000.0);
    std::printf("  %-8s %2zu clients  multiget %9.0f ops/s   p50 %7.3f ms   p99 %7.3f ms\n",
                cfg.name, clients, mget_ops_sec, mget_lat.Quantile(0.50), mget_lat.Quantile(0.99));
    EmitJsonRow("net",
                std::string("tput multiget ") + cfg.name + " " + std::to_string(clients) + "c",
                mget_lat.Quantile(0.50), mget_lat.Quantile(0.99), mget_ops_sec, total_ops);
  }

  server.Stop();
}

// ---------------------------------------------------------------------------
// Cross-transaction commit batching: Zipfian hot-key contended RMW.
//
// The batching comparison needs the *real* DynamoDB latency profile (zeroed
// latencies make every storage round free, so there is nothing to coalesce)
// plus a bounded connection pool: with a handful of request slots and 16+
// closed-loop committers, the unbatched protocol queues 2 rounds per
// transaction on the pool while the batcher fuses every queued committer
// into one shared round. Workload is a contended read-modify-write — each
// op reads a Zipfian-hot key, overwrites it, commits — the serverless
// counter/session pattern the paper's Figure 7 stresses. Rows are named
// "tput zipf batched|unbatched <N>c" for the bench_gate stage-3 ratio;
// stage 1 skips them (no "baseline" config to pair with).

// Inverse-CDF Zipfian sampler over `n` key ranks; rank 0 is the hottest.
class ZipfianKeys {
 public:
  ZipfianKeys(size_t n, double s) {
    cdf_.reserve(n);
    double sum = 0;
    for (size_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }

  size_t Sample(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    return static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// Forwards every call to `inner` but reports that commit rounds share no
// cost, so the node's batcher runs each commit in its own round: the
// "unbatched" reference over the very same bounded-pool engine.
class SoloRoundEngine final : public StorageEngine {
 public:
  explicit SoloRoundEngine(StorageEngine& inner) : inner_(inner) {}

  Result<std::string> Get(const std::string& key) override { return inner_.Get(key); }
  Result<std::string> GetRange(const std::string& key, uint64_t offset,
                               uint64_t length) override {
    return inner_.GetRange(key, offset, length);
  }
  std::vector<Result<std::string>> MultiGet(std::span<const std::string> keys) override {
    return inner_.MultiGet(keys);
  }
  Status Put(std::string key, std::string value) override {
    return inner_.Put(std::move(key), std::move(value));
  }
  Status PutIfAbsent(std::string key, std::string value) override {
    return inner_.PutIfAbsent(std::move(key), std::move(value));
  }
  Status BatchPut(std::span<const WriteOp> ops) override { return inner_.BatchPut(ops); }
  Status BatchPutConsume(std::span<WriteOp> ops) override { return inner_.BatchPutConsume(ops); }
  void BatchPutEach(std::span<WriteOp> ops, std::span<Status> statuses) override {
    inner_.BatchPutEach(ops, statuses);
  }
  void CommitUnits(std::span<CommitUnit> units, std::span<Status> results,
                   CommitStageProfile* profile) override {
    inner_.CommitUnits(units, results, profile);
  }
  bool CommitRoundsShareCost() const override { return false; }
  Status Delete(const std::string& key) override { return inner_.Delete(key); }
  Status BatchDelete(std::span<const std::string> keys) override {
    return inner_.BatchDelete(keys);
  }
  Result<std::vector<std::string>> List(const std::string& prefix) override {
    return inner_.List(prefix);
  }
  std::string_view name() const override { return inner_.name(); }
  bool SupportsBatchPut() const override { return inner_.SupportsBatchPut(); }
  size_t MaxBatchSize() const override { return inner_.MaxBatchSize(); }
  double client_cpu_factor() const override { return inner_.client_cpu_factor(); }
  const StorageCounters& counters() const override { return inner_.counters(); }

 private:
  StorageEngine& inner_;
};

void RunCommitBatchingConfig(bool batching, size_t clients, long ops_per_client,
                             const ZipfianKeys& zipf, size_t key_space, size_t pool_slots) {
  // Fresh engine per config so batched and unbatched runs see identical
  // initial state and identical pool pressure.
  SimDynamo storage(BenchClock(), SimDynamoOptions{});
  storage.SetMaxConcurrentRequests(pool_slots);
  SoloRoundEngine solo_rounds(storage);
  AftNodeOptions node_options;
  node_options.service_cores = 0;  // Measure protocol rounds, not simulated CPU.
  AftNode node("bench-batch", batching ? static_cast<StorageEngine&>(storage) : solo_rounds,
               BenchClock(), node_options);
  Check(node.Start(), "batch node Start");

  // Seed the key space so the RMW reads mostly hit.
  {
    auto txid = node.StartTransaction();
    Check(txid.status(), "batch seed StartTransaction");
    for (size_t i = 0; i < key_space; ++i) {
      Check(node.Put(*txid, "zipf" + std::to_string(i), "0"), "batch seed Put");
    }
    Check(node.CommitTransaction(*txid).status(), "batch seed Commit");
  }

  const uint64_t total_ops = static_cast<uint64_t>(clients) * ops_per_client;
  double elapsed_ms = 0;
  obs::Histogram lat(FineLatencyBoundariesMs());
  RunClosedLoop(clients, &elapsed_ms, [&](size_t c) {
    std::mt19937_64 rng(0x5eed0000 + c);
    for (long r = 0; r < ops_per_client; ++r) {
      const auto op_start = std::chrono::steady_clock::now();
      auto txid = node.StartTransaction();
      Check(txid.status(), "batch StartTransaction");
      const std::string key = "zipf" + std::to_string(zipf.Sample(rng));
      // Contended RMW: read the hot key (kNotFound only races the seed),
      // overwrite it, commit. The value encodes writer+round for debugging.
      (void)node.Get(*txid, key);
      Check(node.Put(*txid, key, std::to_string(c) + ":" + std::to_string(r)), "batch Put");
      Check(node.CommitTransaction(*txid).status(), "batch Commit");
      lat.Observe(WallMs(op_start));
    }
  });
  const double ops_sec = total_ops / (elapsed_ms / 1000.0);
  const char* label = batching ? "batched" : "unbatched";
  std::printf("  %-9s %2zu clients  rmw-commit %9.0f ops/s   p50 %7.3f ms   p99 %7.3f ms\n",
              label, clients, ops_sec, lat.Quantile(0.50), lat.Quantile(0.99));
  EmitJsonRow("net",
              std::string("tput zipf ") + label + " " + std::to_string(clients) + "c",
              lat.Quantile(0.50), lat.Quantile(0.99), ops_sec, total_ops);
}

void RunCommitBatchingSweep(long ops_per_client) {
  PrintTitle("commit batching: Zipfian hot-key RMW, batched vs unbatched (wall-clock)");
  constexpr size_t kKeySpace = 64;     // Zipf s=0.99 -> ~25% of ops hit rank 0.
  constexpr size_t kPoolSlots = 4;     // Bounded connection pool (shared resource).
  std::printf("  %ld ops per client per row, %zu keys, pool=%zu\n", ops_per_client, kKeySpace,
              kPoolSlots);
  const ZipfianKeys zipf(kKeySpace, 0.99);
  for (size_t clients : {16u, 64u}) {
    for (bool batching : {false, true}) {
      RunCommitBatchingConfig(batching, clients, ops_per_client, zipf, kKeySpace, kPoolSlots);
    }
  }
}

void RunThroughputSweep(AftNode& node, long ops_per_client) {
  PrintTitle("net closed-loop throughput: 1/4/16/64 clients (wall-clock)");
  std::printf("  %ld ops per client per row\n", ops_per_client);

  std::vector<std::string> keys;
  for (size_t i = 0; i < 10; ++i) {
    keys.push_back(Key(i));
  }

  const TputConfig kConfigs[] = {
      {"event", net::ServerThreading::kEventLoop, 4, 32},
      {"thread", net::ServerThreading::kThreadPerConn, 4, 32},
      {"baseline", net::ServerThreading::kThreadPerConn, 1, 1},
  };
  for (const TputConfig& cfg : kConfigs) {
    RunThroughputConfig(node, cfg, ops_per_client, keys);
  }
}

}  // namespace
}  // namespace aft

int main() {
  using namespace aft;

  const long reps = bench::GetEnvLong("AFT_BENCH_REQUESTS", 500);
  bench::PrintTitle("net transport overhead: in-proc vs loopback TCP (wall-clock ms)");
  std::printf("  %ld requests per row\n", reps);

  Clock& clock = bench::BenchClock();
  SimDynamo storage(clock, InstantDynamo());
  AftNodeOptions node_options;
  node_options.service_cores = 0;  // Measure transport, not simulated CPU.
  AftNode node("bench-net", storage, clock, node_options);
  Check(node.Start(), "node Start");

  net::AftServiceServer server(node);
  Check(server.Start(), "server Start");
  net::RemoteAftClient client({server.endpoint()});

  // Seed the keys the MultiGet sweep reads.
  {
    auto txid = node.StartTransaction();
    Check(txid.status(), "seed StartTransaction");
    for (size_t i = 0; i < 10; ++i) {
      Check(node.Put(*txid, Key(i), std::string(512, 's')), "seed Put");
    }
    Check(node.CommitTransaction(*txid).status(), "seed Commit");
  }

  bench::StageBreakdown breakdown("net", "bench-net");
  RunInProcCommit(node, reps);
  breakdown.Report("inproc commit");
  RunTcpCommit(client, reps);
  for (size_t keys : {1, 5, 10}) {
    RunMultiGet(node, client, keys, reps);
  }

  const long tput_ops =
      bench::GetEnvLong("AFT_BENCH_TPUT_OPS", reps < 200 ? reps : 200);
  breakdown.Report("tcp commit");  // Window: the TCP commit rows above.
  RunThroughputSweep(node, tput_ops);
  breakdown.Report("tput commit");
  RunCommitBatchingSweep(tput_ops);

  std::printf("\n  server: %llu requests over %llu connections\n",
              static_cast<unsigned long long>(server.stats().requests_served.load()),
              static_cast<unsigned long long>(server.stats().connections_accepted.load()));
  server.Stop();
  return 0;
}
