// Transport microbench: what does the real TCP boundary cost?
//
// Part 1 (latency): runs the same commit and MultiGet workloads twice —
// directly against an AftNode (in-proc, the original call path) and through
// AftServiceServer + RemoteAftClient over loopback TCP (framing, CRC, two
// socket hops per op) — and reports p50/p99 per path.
//
// Part 2 (throughput): closed-loop multi-client sweep at 1/4/16/64 client
// threads against two client configurations of the event-loop server:
//   * event    — pooled + pipelined client;
//   * baseline — ONE connection, single-flight (the pre-pipelining client;
//                the yardstick tools/bench_gate.sh divides by).
// Each row reports ops/sec plus per-op p50/p99. Storage latencies are zeroed
// so these rows isolate pure shim + wire overhead.
//
// Part 3 (storage latency): the same sweep of pipelined clients over the
// default-latency SimDynamo, each op a read-modify-write transaction ("tput
// rmw event <N>c"). Here handlers sleep on storage, so the rows show how the
// server overlaps slow requests rather than how cheap one hop is.
//
// All numbers are WALL-CLOCK milliseconds (the wire is real hardware; the
// simulated time scale only shortens the simulated storage calls).
//
// Knobs: AFT_BENCH_REQUESTS (latency reps), AFT_BENCH_TPUT_OPS (closed-loop
// ops per client; defaults to min(AFT_BENCH_REQUESTS, 200) so --smoke stays
// fast).

#include <chrono>
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
  net::AftServiceServer server(node);
  Check(server.Start(), "tput server Start");

  net::RemoteAftClientOptions client_options;
  client_options.connections_per_endpoint = cfg.connections_per_endpoint;
  client_options.max_inflight = cfg.max_inflight;
  net::RemoteAftClient client({server.endpoint()}, client_options);

  std::printf("  --- %s (pool=%zu, inflight=%zu) ---\n", cfg.name, cfg.connections_per_endpoint,
              cfg.max_inflight);

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

void RunThroughputSweep(AftNode& node, long ops_per_client) {
  PrintTitle("net closed-loop throughput: 1/4/16/64 clients (wall-clock)");
  std::printf("  %ld ops per client per row\n", ops_per_client);

  std::vector<std::string> keys;
  for (size_t i = 0; i < 10; ++i) {
    keys.push_back(Key(i));
  }

  const TputConfig kConfigs[] = {
      {"event", 4, 32},
      {"baseline", 1, 1},
  };
  for (const TputConfig& cfg : kConfigs) {
    RunThroughputConfig(node, cfg, ops_per_client, keys);
  }
}

// Closed-loop read-modify-write over the default-latency SimDynamo: each op
// is start + get + put (512 B) + commit of the client's own key, through a
// pooled, pipelined client. kRmwTxnsPerClient is fixed so every run of a
// row does the same work whatever AFT_BENCH_TPUT_OPS says.
void RunStorageLatencySweep() {
  constexpr long kRmwTxnsPerClient = 40;
  PrintTitle("net closed-loop rmw over default-latency SimDynamo (wall-clock)");
  std::printf("  %ld transactions per client per row, pool=4, inflight=32\n", kRmwTxnsPerClient);
  SimDynamo storage(BenchClock(), SimDynamoOptions{});
  AftNodeOptions node_options;
  node_options.service_cores = 0;  // Measure storage waits, not simulated CPU.
  AftNode node("bench-rmw", storage, BenchClock(), node_options);
  Check(node.Start(), "rmw node Start");
  net::AftServiceServer server(node);
  Check(server.Start(), "rmw server Start");
  net::RemoteAftClientOptions client_options;
  client_options.connections_per_endpoint = 4;
  client_options.max_inflight = 32;
  net::RemoteAftClient client({server.endpoint()}, client_options);
  const std::string value(512, 'r');

  for (size_t clients : {1u, 4u, 16u, 64u}) {
    const uint64_t total_ops = static_cast<uint64_t>(clients) * kRmwTxnsPerClient;
    double elapsed_ms = 0;
    obs::Histogram lat(FineLatencyBoundariesMs());
    RunClosedLoop(clients, &elapsed_ms, [&](size_t c) {
      const std::string key = "rmw" + std::to_string(c);
      for (long r = 0; r < kRmwTxnsPerClient; ++r) {
        const auto op_start = std::chrono::steady_clock::now();
        auto session = client.StartTransaction();
        Check(session.status(), "rmw StartTransaction");
        Check(client.Get(*session, key).status(), "rmw Get");
        Check(client.Put(*session, key, value), "rmw Put");
        Check(client.Commit(*session).status(), "rmw Commit");
        lat.Observe(WallMs(op_start));
      }
    });
    const double ops_sec = total_ops / (elapsed_ms / 1000.0);
    std::printf("  event    %2zu clients  rmw      %9.0f txn/s   p50 %7.3f ms   p99 %7.3f ms\n",
                clients, ops_sec, lat.Quantile(0.50), lat.Quantile(0.99));
    EmitJsonRow("net", "tput rmw event " + std::to_string(clients) + "c", lat.Quantile(0.50),
                lat.Quantile(0.99), ops_sec, total_ops);
  }
  server.Stop();
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
  RunStorageLatencySweep();

  std::printf("\n  server: %llu requests over %llu connections\n",
              static_cast<unsigned long long>(server.stats().requests_served.load()),
              static_cast<unsigned long long>(server.stats().connections_accepted.load()));
  server.Stop();
  return 0;
}
