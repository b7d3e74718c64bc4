#include "perfbench/workloads.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>

#include "src/baseline/anomaly_checker.h"
#include "src/cluster/aft_client.h"
#include "src/cluster/deployment.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/core/records.h"
#include "src/faas/faas_platform.h"
#include "src/net/client.h"
#include "src/obs/metrics.h"
#include "src/storage/local_engine.h"
#include "src/storage/sim_s3.h"
#include "src/workload/dataset.h"
#include "src/workload/runners.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using aft::Status;

// The host has 4 cores: every workload is a closed loop of 4 client threads.
constexpr size_t kClients = 4;

// Whole-request retries after an abort or an unavailable node, with the
// request runners' semantics (src/workload/runners.h).
const aft::RunnerRetryPolicy kRetry{};

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// What one client thread carries from request to request.
struct Client {
  size_t index = 0;
  aft::Rng rng;
  SpanLog spans;
  uint64_t request_retries = 0;
  uint64_t sequence = 0;  // Requests issued by this client so far.
};

const int64_t g_process_start_ns = SteadyNowNs();

// Progress on stderr, stamped with seconds since the process started.
void Progress(const std::string& what) {
  std::fprintf(stderr, "perfbench: [%7.2f s] %s\n",
               static_cast<double>(SteadyNowNs() - g_process_start_ns) / 1e9, what.c_str());
}

template <typename Fn>
auto Traced(SpanLog& log, const char* name, Fn&& fn) {
  SpanLog::Scope scope(log, name);
  return fn();
}

// Closed loop: kClients threads, each sending its next request as soon as the
// previous one returns, until `seconds` of wall time have passed. Client i's
// generator is seeded from (seed, i), so two phases given the same seed issue
// the same request plans.
template <typename RequestFn>
Phase ClosedLoop(const std::string& name, double seconds, uint64_t seed, bool trace,
                 std::vector<Span>* spans_out, RequestFn request) {
  struct PerThread {
    std::vector<double> latency_ms;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t retries = 0;
    int64_t end_ns = 0;
    std::vector<Span> spans;
  };
  std::vector<PerThread> per_thread(kClients);
  const int64_t start_ns = SteadyNowNs();
  const int64_t deadline_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client{i, aft::Rng(StreamSeed(seed, i)), SpanLog(trace)};
      PerThread& out = per_thread[i];
      while (SteadyNowNs() < deadline_ns) {
        client.spans.BeginRequest((static_cast<uint64_t>(i) << 40) | client.sequence++);
        const int64_t t0 = SteadyNowNs();
        Status status = Status::Ok();
        {
          SpanLog::Scope root(client.spans, "request");
          status = request(client);
        }
        const int64_t t1 = SteadyNowNs();
        ++out.attempted;
        if (status.ok()) {
          out.latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        } else {
          ++out.failed;
          std::fprintf(stderr, "perfbench: %s request failed: %s\n", name.c_str(),
                       status.ToString().c_str());
        }
      }
      out.end_ns = SteadyNowNs();
      out.retries = client.request_retries;
      out.spans = client.spans.spans();
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  Phase phase;
  phase.name = name;
  int64_t end_ns = start_ns;
  for (PerThread& t : per_thread) {
    phase.latency_ms.insert(phase.latency_ms.end(), t.latency_ms.begin(), t.latency_ms.end());
    phase.attempted += t.attempted;
    phase.failed += t.failed;
    phase.request_retries += t.retries;
    end_ns = std::max(end_ns, t.end_ns);
    if (spans_out != nullptr) {
      spans_out->insert(spans_out->end(), t.spans.begin(), t.spans.end());
    }
  }
  phase.elapsed_s = static_cast<double>(end_ns - start_ns) / 1e9;
  Progress(name + ": " + std::to_string(phase.attempted) + " requests");
  return phase;
}

// Runs `attempt` until it succeeds, fails with an error that a fresh
// transaction cannot fix, or exhausts the retry budget.
template <typename AttemptFn>
Status WithRetries(Client& client, aft::Clock& clock, AttemptFn attempt) {
  Status last = Status::Ok();
  for (int a = 0; a <= kRetry.max_request_retries; ++a) {
    if (a > 0) {
      ++client.request_retries;
      SpanLog::Scope backoff(client.spans, "request.backoff");
      clock.SleepFor(kRetry.retry_backoff);
    }
    last = attempt();
    if (last.ok() || (!last.IsAborted() && !last.IsUnavailable())) {
      return last;
    }
  }
  return last;
}

// The anomaly checker's view of one versioned read.
aft::ReadObservation Observe(const std::string& key, const aft::AftNode::VersionedRead& read) {
  aft::ReadObservation obs;
  obs.key = key;
  obs.version = read.version;
  if (read.record != nullptr) {
    obs.cowritten = std::shared_ptr<const std::vector<std::string>>(read.record,
                                                                    &read.record->write_set);
  }
  return obs;
}

void AddStorage(std::map<std::string, double>& out, const aft::StorageCounters& c) {
  out["storage.gets"] = static_cast<double>(c.gets.load());
  out["storage.puts"] = static_cast<double>(c.puts.load());
  out["storage.api_calls"] = static_cast<double>(c.api_calls.load());
}

void AddFaultManager(std::map<std::string, double>& out, const aft::FaultManagerStats& s) {
  out["fm.versions_deleted"] = static_cast<double>(s.versions_deleted.load());
}

void AddRemoteClient(std::map<std::string, double>& out, const aft::net::RemoteAftClientStats& s) {
  out["net.retries"] = static_cast<double>(s.retries.load());
  out["net.reconnects"] = static_cast<double>(s.reconnects.load());
  out["net.fanouts"] = static_cast<double>(s.fanouts.load());
}

std::string Exposition() { return aft::obs::MetricsRegistry::Global().Exposition(); }

double SecondsSince(int64_t start_ns) { return static_cast<double>(SteadyNowNs() - start_ns) / 1e9; }

// Builds the workload's deployment `reps` times, timing each build, and
// keeps the last one: set-up time is reported as the median of the builds.
// `build` gets the repetition's index.
template <typename Stack, typename BuildFn>
std::unique_ptr<Stack> TimedSetup(int reps, RunResult* result, BuildFn build) {
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < reps; ++r) {
    stack.reset();
    const int64_t t0 = SteadyNowNs();
    stack = build(r);
    if (stack == nullptr) {
      return nullptr;
    }
    result->setup_s.push_back(SecondsSince(t0));
    Progress("set-up " + std::to_string(r + 1) + " of " + std::to_string(reps));
  }
  return stack;
}

void Append(Phase& into, const Phase& more) {
  into.latency_ms.insert(into.latency_ms.end(), more.latency_ms.begin(), more.latency_ms.end());
  into.attempted += more.attempted;
  into.failed += more.failed;
  into.request_retries += more.request_retries;
  into.elapsed_s += more.elapsed_s;
}

// The measured phases every workload shares, after an unrecorded warm-up.
// An untraced run measures `main_s` of AFT requests. A traced run splits
// the time untraced / traced / untraced (a quarter, half, quarter), so drift
// over the run cancels out of the traced-vs-untraced p50 (the tracing
// overhead). `counters` snapshots the layers' stats around the main phase.
// `request` audits every transaction it commits into `audit`; the result
// gets the anomalies of all phases and the number audited in the main one.
template <typename RequestFn, typename CountersFn>
void MeasureAft(const RunOptions& options, double main_s, double warmup_s, RunResult* result,
                const aft::AnomalyCounters& audit, RequestFn request, CountersFn counters) {
  (void)ClosedLoop("warmup", warmup_s, StreamSeed(options.seed, 1000), false, nullptr, request);
  Phase untraced;
  if (options.trace) {
    untraced = ClosedLoop("untraced", main_s / 4, options.seed, false, nullptr, request);
  }
  result->before = counters();
  result->registry_before = Exposition();
  const uint64_t audited_before = audit.transactions.load();
  const char* main_name = options.trace ? "traced" : "aft";
  result->phases.push_back(ClosedLoop(main_name, options.trace ? main_s / 2 : main_s,
                                      options.seed, options.trace, &result->spans, request));
  result->audited_txns = audit.transactions.load() - audited_before;
  result->after = counters();
  result->registry_after = Exposition();
  result->main_phase = main_name;
  if (options.trace) {
    Append(untraced, ClosedLoop("untraced", main_s / 4, StreamSeed(options.seed, 1), false,
                                nullptr, request));
    result->phases.push_back(std::move(untraced));
    result->baseline_phase = "untraced";
  }
  result->ryw_anomalies = audit.ryw_anomalies.load();
  result->fr_anomalies = audit.fr_anomalies.load();
}

// ---------------------------------------------------------------------------
// fig3_s3: the paper's canonical request (Figure 3) over simulated S3.

// Wall seconds per simulated second. Host scheduling delays add wall time
// to every sleep, which the scale divides into simulated time: at 0.25 a
// 0.3 ms wake-up delay costs 1.2 simulated ms per sleep, ~5% of a request
// over its ~15 sleeps. Smaller scales are noisier; larger ones leave too
// few requests in a run for a p99 with ten samples beyond it.
constexpr double kFig3TimeScale = 0.25;
constexpr double kFig3WarmupS = 2;
constexpr double kFig3TcpWarmupS = 3;

aft::WorkloadSpec Fig3Spec() {
  aft::WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.zipf_theta = 1.0;
  spec.value_bytes = 4096;
  spec.num_functions = 2;
  spec.reads_per_function = 2;
  spec.writes_per_function = 1;
  return spec;
}

struct Fig3Stack {
  std::unique_ptr<aft::SimS3> aft_store;
  std::unique_ptr<aft::ClusterDeployment> cluster;
  std::unique_ptr<aft::FaasPlatform> faas;
  std::unique_ptr<aft::AftClient> client;
  // The Plain reference: the same chain writing straight to its own store.
  std::unique_ptr<aft::SimS3> plain_store;
  std::unique_ptr<aft::FaasPlatform> plain_faas;
};

std::unique_ptr<Fig3Stack> BuildFig3(aft::Clock& clock, const aft::WorkloadSpec& spec) {
  auto s = std::make_unique<Fig3Stack>();
  s->aft_store = std::make_unique<aft::SimS3>(clock);
  if (!aft::LoadAftDataset(*s->aft_store, spec).ok()) {
    return nullptr;
  }
  aft::ClusterOptions cluster_options;
  cluster_options.num_nodes = 1;
  // Figure 3 runs without the data cache (Figure 4 studies caching).
  cluster_options.node_options.data_cache_bytes = 0;
  s->cluster = std::make_unique<aft::ClusterDeployment>(*s->aft_store, clock, cluster_options);
  if (!s->cluster->Start().ok()) {
    return nullptr;
  }
  s->faas = std::make_unique<aft::FaasPlatform>(clock);
  s->client = std::make_unique<aft::AftClient>(s->cluster->balancer(), clock);
  s->plain_store = std::make_unique<aft::SimS3>(clock);
  if (!aft::LoadPlainDataset(*s->plain_store, spec).ok()) {
    return nullptr;
  }
  s->plain_faas = std::make_unique<aft::FaasPlatform>(clock);
  return s;
}

// One canonical AFT request: StartTransaction, a chain of functions each
// doing its planned reads and writes through the client, then Commit — what
// AftRequestRunner does, with a span around every call into a layer.
// `AftClientT` is AftClient (in-proc hop) or net::RemoteAftClient (TCP).
template <typename AftClientT>
Status CanonicalRequest(Client& c, aft::FaasPlatform& faas, AftClientT& client, aft::Clock& clock,
                        const aft::TxnPlanGenerator& plans, aft::AnomalyCounters& audit) {
  aft::TxnLog log;
  Status status = WithRetries(c, clock, [&]() -> Status {
    const aft::TxnPlan plan = plans.Generate(c.rng);
    auto session = Traced(c.spans, "client.start", [&] { return client.StartTransaction(); });
    if (!session.ok()) {
      return session.status();
    }
    log.events.clear();
    log.self = aft::TxnId(0, session->txid);
    std::vector<aft::FaasFunction> chain;
    for (size_t f = 0; f < plan.functions.size(); ++f) {
      chain.push_back([&, f](int attempt) -> Status {
        SpanLog::Scope body(c.spans, "faas.function");
        if (attempt > 0) {
          AFT_RETURN_IF_ERROR(
              Traced(c.spans, "client.resume", [&] { return client.Resume(*session); }));
        }
        // Events are appended only when the function succeeds, so a retried
        // attempt leaves nothing in the audit log.
        std::vector<aft::TxnLog::Event> staged;
        for (const aft::OpPlan& op : plan.functions[f]) {
          if (op.is_read) {
            auto read = Traced(c.spans, "client.read",
                               [&] { return client.GetVersioned(*session, op.key); });
            if (!read.ok()) {
              return read.status();
            }
            staged.push_back({aft::TxnLog::Event::Kind::kRead, op.key, Observe(op.key, *read)});
          } else {
            std::string payload = aft::MakePayload(plans.spec(), c.rng());
            AFT_RETURN_IF_ERROR(Traced(c.spans, "client.write", [&] {
              return client.Put(*session, op.key, std::move(payload));
            }));
            staged.push_back({aft::TxnLog::Event::Kind::kWrite, op.key, aft::ReadObservation{}});
          }
        }
        log.events.insert(log.events.end(), staged.begin(), staged.end());
        return Status::Ok();
      });
    }
    const Status chain_status =
        Traced(c.spans, "faas.invoke_chain", [&] { return faas.InvokeChain(chain); });
    if (!chain_status.ok()) {
      (void)Traced(c.spans, "client.abort", [&] { return client.Abort(*session); });
      return chain_status;
    }
    return Traced(c.spans, "client.commit", [&] { return client.Commit(*session); }).status();
  });
  if (status.ok()) {
    audit.Accumulate(aft::CheckTransaction(log));
  }
  return status;
}

std::map<std::string, double> Fig3Counters(Fig3Stack& s) {
  std::map<std::string, double> out;
  AddStorage(out, s.aft_store->counters());
  AddFaultManager(out, s.cluster->fault_manager().stats());
  out["faas.retries"] = static_cast<double>(s.faas->stats().retries.load());
  return out;
}

// ---------------------------------------------------------------------------
// The WAL-backed LocalEngine, shared by fig3_tcp and rmw_local.

// The dataset in AFT's storage format (what LoadAftDataset writes), but in
// engine-sized batches: one fsync per batch instead of one per key.
Status LoadBatched(aft::StorageEngine& engine, uint64_t keys, size_t value_bytes) {
  aft::WorkloadSpec spec;
  spec.value_bytes = value_bytes;
  aft::Rng rng(0xDA7A5EEDULL);
  std::vector<aft::WriteOp> ops;
  for (uint64_t rank = 0; rank < keys; ++rank) {
    const std::string key = aft::KeyForRank(rank);
    const aft::TxnId writer(1, aft::Uuid::Random(rng));
    const std::vector<std::string> write_set{key};
    aft::VersionedValue value{writer, write_set, aft::MakePayload(spec, rank)};
    ops.push_back({aft::VersionStorageKey(key, writer.uuid), value.Serialize()});
    aft::CommitRecord record;
    record.id = writer;
    record.write_set = write_set;
    ops.push_back({aft::CommitStorageKey(writer), record.Serialize()});
    if (ops.size() + 2 > engine.MaxBatchSize() || rank + 1 == keys) {
      AFT_RETURN_IF_ERROR(engine.BatchPut(ops));
      ops.clear();
    }
  }
  return Status::Ok();
}

aft::ClusterOptions RealTimeClusterOptions(size_t nodes) {
  aft::ClusterOptions options;
  options.num_nodes = nodes;
  // No simulated service time: on real I/O and real sockets the throttle's
  // sleeps would be most of what is measured.
  options.node_options.service_cores = 0;
  // Local GC runs on the node's background thread, beside the fault
  // manager's global GC (started with the deployment).
  options.node_options.enable_background_threads = true;
  return options;
}

// Opens a LocalEngine on `dir` (which must not exist yet: set-up starts
// from an empty data directory) and loads `keys` keys into it.
std::unique_ptr<aft::LocalEngine> LoadedEngine(const std::string& dir,
                                               const aft::LocalEngineOptions& options,
                                               uint64_t keys, size_t value_bytes) {
  auto engine = aft::LocalEngine::Open(dir, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "perfbench: open %s: %s\n", dir.c_str(),
                 engine.status().ToString().c_str());
    return nullptr;
  }
  if (!LoadBatched(**engine, keys, value_bytes).ok()) {
    return nullptr;
  }
  return std::move(engine).value();
}

void AddWal(std::map<std::string, double>& out, const aft::LocalEngine& engine) {
  const aft::Wal::Stats wal = engine.wal_stats();
  out["wal.appends"] = static_cast<double>(wal.batches);
  out["wal.fsyncs"] = static_cast<double>(wal.fsyncs);
  out["wal.records"] = static_cast<double>(wal.records);
  out["wal.bytes_appended"] = static_cast<double>(wal.bytes_appended);
  out["wal.compactions"] = static_cast<double>(engine.compactions());
  out["wal.reclaimed_bytes"] = static_cast<double>(engine.compaction_reclaimed_bytes());
  const aft::LocalEngine::FileStats files = engine.file_stats();
  out["wal.file_bytes"] = static_cast<double>(files.total_bytes);
  out["wal.dead_bytes"] = static_cast<double>(files.dead_bytes);
}

// Runs `build(dir)` `reps` times, each on a fresh directory under `root`,
// and keeps the last deployment; the other directories are removed.
template <typename Stack, typename BuildFn>
std::unique_ptr<Stack> TimedSetupInDirs(int reps, const std::string& root, RunResult* result,
                                        BuildFn build) {
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  std::filesystem::create_directories(root, ec);
  auto stack = TimedSetup<Stack>(
      reps, result, [&](int r) { return build(root + "/" + std::to_string(r)); });
  for (int r = 0; r + 1 < reps; ++r) {
    std::filesystem::remove_all(root + "/" + std::to_string(r), ec);
  }
  return stack;
}

// ---------------------------------------------------------------------------
// fig3_tcp: the same canonical request through the real transport — FaaS
// functions call a RemoteAftClient over loopback TCP into a 2-node
// deployment (event-loop servers, TCP gossip, local GC) over the WAL-backed
// LocalEngine with fdatasync.

struct Fig3TcpStack {
  std::unique_ptr<aft::LocalEngine> store;
  std::unique_ptr<aft::ClusterDeployment> cluster;
  std::unique_ptr<aft::FaasPlatform> faas;
  std::unique_ptr<aft::net::RemoteAftClient> client;
};

std::unique_ptr<Fig3TcpStack> BuildFig3Tcp(aft::Clock& clock, const aft::WorkloadSpec& spec,
                                           const std::string& dir) {
  auto s = std::make_unique<Fig3TcpStack>();
  // The workload writes ~1 MB/s. With 1 MiB log files and 1 MiB of dead
  // bytes enough to compact, the WAL rotates every second or so and
  // compacts within a run (the 64 MiB / 8 MiB defaults would not).
  aft::LocalEngineOptions engine_options;
  engine_options.max_log_bytes = 1 << 20;
  engine_options.compact_min_dead_bytes = 1 << 20;
  s->store = LoadedEngine(dir, engine_options, spec.num_keys, spec.value_bytes);
  if (s->store == nullptr) {
    return nullptr;
  }
  aft::ClusterOptions options = RealTimeClusterOptions(2);
  options.transport = aft::ClusterTransport::kTcp;
  options.tcp_options.server_options.threading = aft::net::ServerThreading::kEventLoop;
  s->cluster = std::make_unique<aft::ClusterDeployment>(*s->store, clock, options);
  if (!s->cluster->Start().ok()) {
    return nullptr;
  }
  s->faas = std::make_unique<aft::FaasPlatform>(clock);
  aft::net::RemoteAftClientOptions client_options;
  client_options.connections_per_endpoint = 2;  // 2 endpoints x 2 = 4 connections.
  s->client = std::make_unique<aft::net::RemoteAftClient>(s->cluster->ServiceEndpoints(),
                                                          client_options);
  return s;
}

// `committed`: transactions committed so far, each writing `txn_bytes`.
std::map<std::string, double> Fig3TcpCounters(Fig3TcpStack& s, uint64_t committed,
                                              uint64_t txn_bytes) {
  std::map<std::string, double> out;
  AddStorage(out, s.store->counters());
  AddWal(out, *s.store);
  AddFaultManager(out, s.cluster->fault_manager().stats());
  AddRemoteClient(out, s.client->stats());
  out["faas.retries"] = static_cast<double>(s.faas->stats().retries.load());
  out["user.bytes_written"] = static_cast<double>(committed * txn_bytes);
  return out;
}

// ---------------------------------------------------------------------------
// rmw_local: durable read-modify-write over the LocalEngine.

constexpr uint64_t kRmwKeys = 32 * 1024;  // x 4 KiB = 128 MiB, twice the data cache.
constexpr size_t kRmwValueBytes = 4096;
constexpr double kRmwTheta = 0.99;
// Throughput falls for the first ~10 s of writing (metadata and the GC
// backlog grow until local and global GC reach their steady rate), then
// holds; measuring starts after that.
constexpr double kRmwWarmupS = 10;

struct RmwStack {
  std::unique_ptr<aft::LocalEngine> engine;
  std::unique_ptr<aft::ClusterDeployment> cluster;
  std::unique_ptr<aft::AftClient> client;
};

std::unique_ptr<RmwStack> BuildRmw(aft::Clock& clock, const std::string& dir) {
  auto s = std::make_unique<RmwStack>();
  s->engine = LoadedEngine(dir, aft::LocalEngineOptions{}, kRmwKeys, kRmwValueBytes);
  if (s->engine == nullptr) {
    return nullptr;
  }
  s->cluster =
      std::make_unique<aft::ClusterDeployment>(*s->engine, clock, RealTimeClusterOptions(1));
  if (!s->cluster->Start().ok()) {
    return nullptr;
  }
  aft::AftClientOptions client_options;
  client_options.network_hop = aft::LatencyModel::Zero();
  s->client = std::make_unique<aft::AftClient>(s->cluster->balancer(), clock, client_options);
  return s;
}

// Flushes the filesystem holding `path`, so writeback left over from earlier
// work (a previous run's gigabytes of WAL, or their deletion) does not
// compete with this run's writes, and this run leaves none behind.
void SyncFilesystem(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    (void)::syncfs(fd);
    ::close(fd);
  }
}

// Every acknowledged write: which key, the commit that wrote it, and the
// tag stamped at the front of its value.
struct AckedWrite {
  uint64_t rank;
  aft::TxnId commit;
  std::string tag;
};

std::string RmwTag(size_t client, uint64_t sequence, size_t slot) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "c%zu-s%llu-w%zu|", client,
                static_cast<unsigned long long>(sequence), slot);
  return buf;
}

std::map<std::string, double> RmwCounters(RmwStack& s, uint64_t user_bytes) {
  std::map<std::string, double> out;
  AddStorage(out, s.engine->counters());
  AddFaultManager(out, s.cluster->fault_manager().stats());
  AddWal(out, *s.engine);
  out["user.bytes_written"] = static_cast<double>(user_bytes);
  return out;
}

// Reopens the engine over the run's directory and starts a fresh node on it
// (timed: that is recovery). Then, for every key written during the run,
// checks that its last acknowledged write is durable: the commit record and
// the tagged version object are both in the reopened store. Separately
// counts keys the recovered node serves at an older version than that write.
bool CheckRmwDurability(aft::Clock& clock, const std::string& dir,
                        const std::vector<AckedWrite>& acked, RunResult* result) {
  std::map<uint64_t, const AckedWrite*> last;
  for (const AckedWrite& w : acked) {
    auto [it, inserted] = last.emplace(w.rank, &w);
    if (!inserted && it->second->commit < w.commit) {
      it->second = &w;
    }
  }
  const int64_t t0 = SteadyNowNs();
  auto engine = aft::LocalEngine::Open(dir);
  if (!engine.ok()) {
    std::fprintf(stderr, "perfbench: reopen: %s\n", engine.status().ToString().c_str());
    return false;
  }
  Progress("store reopened");
  aft::AftNodeOptions node_options;
  node_options.service_cores = 0;
  aft::AftNode node("perfbench-recovery", **engine, clock, node_options);
  if (!node.Start().ok()) {
    return false;
  }
  result->recovery_ms = SecondsSince(t0) * 1e3;

  for (const auto& [rank, write] : last) {
    const std::string key = aft::KeyForRank(rank);
    ++result->durability_keys;
    auto record = (*engine)->Get(aft::CommitStorageKey(write->commit));
    auto version = (*engine)->Get(aft::VersionStorageKey(key, write->commit.uuid));
    auto value = version.ok() ? aft::VersionedValue::Deserialize(*version)
                              : aft::Result<aft::VersionedValue>(version.status());
    if (!record.ok() || !value.ok() || !value->payload.starts_with(write->tag)) {
      ++result->durability_lost;
      std::fprintf(stderr, "perfbench: key %s lost acknowledged write %s\n", key.c_str(),
                   write->commit.ToString().c_str());
    }
    // One transaction per key: a read set of every key would make each
    // Algorithm 1 check scan all earlier reads.
    auto txid = node.StartTransaction();
    if (!txid.ok()) {
      return false;
    }
    auto read = node.GetVersioned(*txid, key);
    if (!read.ok() || read->version < write->commit) {
      ++result->recovered_stale;
    }
    (void)node.AbortTransaction(*txid);
  }
  return true;
}

}  // namespace

bool RunFig3S3(const RunOptions& options, RunResult* result) {
  // Always kFig3TimeScale, whatever AFT_TIME_SCALE says: the bounds in
  // BENCHMARK.json were set at this scale (run.py records the variable).
  aft::RealClock clock(kFig3TimeScale, aft::Duration::zero());
  result->time_scale = kFig3TimeScale;
  const aft::WorkloadSpec spec = Fig3Spec();
  // One set-up takes 30-60 ms, varying from one to the next, so set-up time
  // is the median of many.
  auto stack = TimedSetup<Fig3Stack>(25, result, [&](int) { return BuildFig3(clock, spec); });
  if (stack == nullptr) {
    std::fprintf(stderr, "perfbench: fig3_s3 set-up failed\n");
    return false;
  }
  const aft::TxnPlanGenerator plans(spec);
  aft::AnomalyCounters audit;
  auto aft_request = [&](Client& c) {
    return CanonicalRequest(c, *stack->faas, *stack->client, clock, plans, audit);
  };
  aft::PlainRequestRunner plain(*stack->plain_faas, *stack->plain_store, clock, plans);
  auto plain_request = [&](Client& c) {
    aft::TxnLog log;
    return plain.RunOnce(c.rng, &log);
  };

  // An untraced run gives a quarter of its time to the Plain reference.
  const double plain_s = options.trace ? 0 : options.seconds / 4;
  MeasureAft(options, options.seconds - plain_s, kFig3WarmupS, result, audit, aft_request,
             [&] { return Fig3Counters(*stack); });
  if (plain_s > 0) {
    // Same seeds, so the same request plans, against plain S3.
    (void)ClosedLoop("warmup", kFig3WarmupS / 2, StreamSeed(options.seed, 1000), false,
                     nullptr, plain_request);
    result->phases.push_back(
        ClosedLoop("plain", plain_s, options.seed, false, nullptr, plain_request));
    result->baseline_phase = "plain";
  }
  return true;
}

bool RunFig3Tcp(const RunOptions& options, RunResult* result) {
  // Real time: the request is dominated by the FaaS latency model, so host
  // scheduling noise on the real socket hops and fdatasync stays small.
  aft::RealClock clock(1.0, aft::Duration::zero());
  const aft::WorkloadSpec spec = Fig3Spec();
  const std::string data_root = options.out_dir + "/fig3_tcp_data";
  auto stack = TimedSetupInDirs<Fig3TcpStack>(
      5, data_root, result, [&](const std::string& dir) { return BuildFig3Tcp(clock, spec, dir); });
  if (stack == nullptr) {
    std::fprintf(stderr, "perfbench: fig3_tcp set-up failed\n");
    return false;
  }
  const aft::TxnPlanGenerator plans(spec);
  aft::AnomalyCounters audit;
  auto request = [&](Client& c) {
    return CanonicalRequest(c, *stack->faas, *stack->client, clock, plans, audit);
  };
  const uint64_t txn_bytes = spec.num_functions * spec.writes_per_function * spec.value_bytes;
  MeasureAft(options, options.seconds, kFig3TcpWarmupS, result, audit, request,
             [&] { return Fig3TcpCounters(*stack, audit.transactions.load(), txn_bytes); });
  stack.reset();
  std::error_code ec;
  std::filesystem::remove_all(data_root, ec);
  return true;
}

bool RunRmwLocal(const RunOptions& options, RunResult* result) {
  aft::RealClock clock(1.0, aft::Duration::zero());
  // Each set-up gets a fresh directory; the last one holds the run's data.
  const std::string data_root = options.out_dir + "/rmw_data";
  constexpr int kSetups = 3;
  SyncFilesystem(options.out_dir);
  auto stack = TimedSetupInDirs<RmwStack>(
      kSetups, data_root, result, [&](const std::string& dir) { return BuildRmw(clock, dir); });
  const std::string dir = data_root + "/" + std::to_string(kSetups - 1);
  if (stack == nullptr) {
    std::fprintf(stderr, "perfbench: rmw_local set-up failed\n");
    return false;
  }
  const aft::ZipfSampler zipf(kRmwKeys, kRmwTheta);
  aft::AnomalyCounters audit;
  std::atomic<uint64_t> user_bytes{0};
  std::vector<std::vector<AckedWrite>> acked(kClients);

  auto request = [&](Client& c) {
    aft::TxnLog log;
    std::vector<uint64_t> ranks;
    Status status = WithRetries(c, clock, [&]() -> Status {
      ranks.clear();
      while (ranks.size() < 2) {
        const uint64_t r = zipf.Sample(c.rng);
        if (ranks.empty() || ranks[0] != r) {
          ranks.push_back(r);
        }
      }
      auto session =
          Traced(c.spans, "client.start", [&] { return stack->client->StartTransaction(); });
      if (!session.ok()) {
        return session.status();
      }
      log.events.clear();
      log.self = aft::TxnId(0, session->txid);
      for (uint64_t r : ranks) {
        const std::string key = aft::KeyForRank(r);
        auto read = Traced(c.spans, "client.read",
                           [&] { return stack->client->GetVersioned(*session, key); });
        if (!read.ok()) {
          return read.status();
        }
        log.AddRead(Observe(key, *read));
      }
      for (size_t w = 0; w < ranks.size(); ++w) {
        const std::string key = aft::KeyForRank(ranks[w]);
        std::string value = RmwTag(c.index, c.sequence, w);
        value.resize(kRmwValueBytes, static_cast<char>('a' + (c.sequence + w) % 26));
        AFT_RETURN_IF_ERROR(Traced(c.spans, "client.write", [&] {
          return stack->client->Put(*session, key, std::move(value));
        }));
        log.AddWrite(key);
      }
      auto committed =
          Traced(c.spans, "client.commit", [&] { return stack->client->Commit(*session); });
      if (!committed.ok()) {
        return committed.status();
      }
      for (size_t w = 0; w < ranks.size(); ++w) {
        acked[c.index].push_back({ranks[w], *committed, RmwTag(c.index, c.sequence, w)});
      }
      user_bytes.fetch_add(ranks.size() * kRmwValueBytes, std::memory_order_relaxed);
      return Status::Ok();
    });
    if (status.ok()) {
      audit.Accumulate(aft::CheckTransaction(log));
    }
    return status;
  };

  MeasureAft(options, options.seconds, kRmwWarmupS, result, audit, request,
             [&] { return RmwCounters(*stack, user_bytes.load()); });

  stack.reset();  // Stops the deployment and closes the engine.
  Progress("deployment stopped");
  std::vector<AckedWrite> all;
  for (auto& per_client : acked) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  const bool ok = CheckRmwDurability(clock, dir, all, result);
  Progress("durability checked");
  std::error_code ec;
  std::filesystem::remove_all(data_root, ec);
  SyncFilesystem(options.out_dir);
  return ok;
}

}  // namespace perfbench
