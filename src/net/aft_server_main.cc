// aft_server: one AFT shim node behind a TCP socket.
//
// Runs a single AftNode over a simulated storage engine and serves the full
// AFT API (StartTransaction / Get / MultiGet / Put / Commit / Abort) on a
// loopback port, speaking the wire protocol in docs/PROTOCOLS.md. Connect
// with a RemoteAftClient (see examples/net_quickstart.cpp).
//
//   $ ./build/src/net/aft_server --port 7654 --engine dynamo --node-id aft-0
//   aft-server: node aft-0 (dynamodb) listening on 127.0.0.1:7654
//
// Flags:
//   --port N        listen port (default 7654; 0 = kernel-assigned, printed)
//   --engine E      s3 | dynamo | redis | local (default dynamo). `local` is
//                   the durable WAL-backed engine and requires --data-dir;
//                   on restart it recovers its state from the log.
//   --data-dir D    data directory for --engine local (created if missing)
//   --node-id ID    node identifier used in commit records (default aft-0)
//   --metrics-port N  also serve plaintext HTTP on this port: GET /metrics
//                   returns the Prometheus exposition of the process registry,
//                   GET /traces the chrome://tracing JSON ring (0 = kernel-
//                   assigned, printed; omit to disable)
//   --trace-sample N  sample every Nth transaction into the lifecycle tracer
//                   (default 0 = tracing off)
//   --smoke-traffic N  self-test traffic: a background RemoteAftClient issues
//                   N put/commit transactions against this server's own TCP
//                   endpoint, paced ~10ms apart (default 0 = none). Gives a
//                   metrics scraper something non-zero and monotone to watch;
//                   used by the CI metrics smoke.
//   --contention-sample N  sample every Nth lock/queue acquisition into the
//                   contention profiler (default 64; 0 = off, 1 = every).
//                   Results surface on /debug/contention and as the
//                   aft_lock_* metric families.
//
// Numeric flags take a plain decimal number (ports 0-65535, counts >= 0);
// anything else prints the usage line and exits 2.
//
// Every flag (and the env defaults it consulted) is echoed to /varz on the
// metrics exporter, so scrape-side tooling can tell node configurations
// apart; /readyz aggregates engine_recovered / server_accepting /
// node_alive (plus gossip_live on clustered binaries).
//
// SIGINT / SIGTERM trigger a clean shutdown: stop accepting, drain in-flight
// requests, stop the node's background sweeps, exit 0.

#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <thread>

#include "src/common/clock.h"
#include "src/common/contention.h"
#include "src/core/aft_node.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/metrics_http.h"
#include "src/obs/trace.h"
#include "src/storage/engine_factory.h"

namespace {

// Written by the signal handler, polled by main. sig_atomic_t keeps the
// handler async-signal-safe.
volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--engine s3|dynamo|redis|local] [--data-dir D] "
               "[--node-id ID] [--metrics-port N] [--trace-sample N] [--smoke-traffic N] "
               "[--contention-sample N]\n",
               argv0);
}

// The whole of `text` as a decimal number in [0, max]; nullopt for anything
// else (empty, a sign, trailing characters, overflow).
std::optional<uint64_t> ParseNumber(const char* text, uint64_t max) {
  const char* end = text + std::strlen(text);
  uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value > max) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aft;

  uint16_t port = 7654;
  std::string engine = "dynamo";
  std::string data_dir;
  std::string node_id = "aft-0";
  int metrics_port = -1;  // -1 = exporter disabled; 0 = kernel-assigned.
  uint64_t trace_sample = 0;
  uint64_t smoke_traffic = 0;
  // Cheap enough to leave on by default (1/64 sampling; see bench_obs).
  uint32_t contention_sample = 64;

  constexpr uint64_t kMaxPort = std::numeric_limits<uint16_t>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return (i + 1 < argc) ? argv[++i] : nullptr; };
    auto next_number = [&](uint64_t max) -> std::optional<uint64_t> {
      const char* v = next();
      return v == nullptr ? std::nullopt : ParseNumber(v, max);
    };
    if (arg == "--port") {
      const auto v = next_number(kMaxPort);
      if (!v) { Usage(argv[0]); return 2; }
      port = static_cast<uint16_t>(*v);
    } else if (arg == "--engine") {
      const char* v = next();
      if (v == nullptr) { Usage(argv[0]); return 2; }
      engine = v;
    } else if (arg == "--data-dir") {
      const char* v = next();
      if (v == nullptr) { Usage(argv[0]); return 2; }
      data_dir = v;
    } else if (arg == "--node-id") {
      const char* v = next();
      if (v == nullptr) { Usage(argv[0]); return 2; }
      node_id = v;
    } else if (arg == "--metrics-port") {
      const auto v = next_number(kMaxPort);
      if (!v) { Usage(argv[0]); return 2; }
      metrics_port = static_cast<int>(*v);
    } else if (arg == "--trace-sample") {
      const auto v = next_number(std::numeric_limits<uint64_t>::max());
      if (!v) { Usage(argv[0]); return 2; }
      trace_sample = *v;
    } else if (arg == "--smoke-traffic") {
      const auto v = next_number(std::numeric_limits<uint64_t>::max());
      if (!v) { Usage(argv[0]); return 2; }
      smoke_traffic = *v;
    } else if (arg == "--contention-sample") {
      const auto v = next_number(std::numeric_limits<uint32_t>::max());
      if (!v) { Usage(argv[0]); return 2; }
      contention_sample = static_cast<uint32_t>(*v);
    } else {
      Usage(argv[0]);
      return arg == "--help" ? 0 : 2;
    }
  }

  obs::Tracer::Global().SetSampleEveryN(trace_sample);
  contention::SetSampleEveryN(contention_sample);

  // /varz flag echo: every flag value as resolved, plus the env defaults the
  // resolution consulted. Scrape-side tooling (aft_top, the CI smoke) reads
  // these to tell node configurations apart without parsing command lines.
  const char* env_io_threads = std::getenv("AFT_IO_THREADS");
  obs::SetVarz("flag.port", std::to_string(port));
  obs::SetVarz("flag.engine", engine);
  obs::SetVarz("flag.data_dir", data_dir.empty() ? "(none)" : data_dir);
  obs::SetVarz("flag.node_id", node_id);
  obs::SetVarz("flag.metrics_port", std::to_string(metrics_port));
  obs::SetVarz("flag.trace_sample", std::to_string(trace_sample));
  obs::SetVarz("flag.smoke_traffic", std::to_string(smoke_traffic));
  obs::SetVarz("flag.contention_sample", std::to_string(contention_sample));
  obs::SetVarz("env.AFT_IO_THREADS", env_io_threads != nullptr ? env_io_threads : "(unset)");

  RealClock& clock = RealClock::Default();
  EngineFactoryConfig engine_config;
  engine_config.data_dir = data_dir;
  auto storage_or = MakeStorageEngine(engine, clock, engine_config);
  if (!storage_or.ok()) {
    std::fprintf(stderr, "aft-server: %s\n", storage_or.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<StorageEngine> storage = std::move(*storage_or);
  // Registered only after MakeStorageEngine returned ok — for --engine local
  // that is after WAL replay, so /readyz says "recovered", not "constructed".
  obs::ScopedReadyCheck engine_ready = obs::RegisterReadyCheck(
      "engine_recovered", [engine] { return std::make_pair(true, engine); });

  AftNode node(node_id, *storage, clock);
  if (!node.Start().ok()) {
    std::fprintf(stderr, "aft-server: failed to start node\n");
    return 1;
  }

  net::AftServiceServerOptions server_options;
  server_options.port = port;
  net::AftServiceServer server(node, server_options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "aft-server: %s\n", started.ToString().c_str());
    return 1;
  }
  obs::ScopedReadyCheck server_ready =
      obs::RegisterReadyCheck("server_accepting", [&server] {
        return std::make_pair(server.running(), server.endpoint().ToString());
      });
  obs::ScopedReadyCheck node_ready = obs::RegisterReadyCheck(
      "node_alive", [&node] { return std::make_pair(node.alive(), std::string()); });
  std::printf("aft-server: node %s (%s) listening on %s\n", node_id.c_str(), engine.c_str(),
              server.endpoint().ToString().c_str());

  obs::MetricsHttpServer metrics_server(obs::MetricsRegistry::Global(), obs::Tracer::Global());
  if (metrics_port >= 0) {
    const Status metrics_started =
        metrics_server.Start(static_cast<uint16_t>(metrics_port));
    if (!metrics_started.ok()) {
      std::fprintf(stderr, "aft-server: metrics exporter: %s\n",
                   metrics_started.ToString().c_str());
      server.Stop();
      node.Kill();
      return 1;
    }
    std::printf("aft-server: metrics on http://127.0.0.1:%u/metrics (traces on /traces)\n",
                metrics_server.port());
  }
  std::fflush(stdout);

  // Optional self-test traffic: real wire traffic through the same TCP path
  // an external client would use, paced so a scraper sees counters move.
  std::thread smoke_thread;
  if (smoke_traffic > 0) {
    smoke_thread = std::thread([&server, smoke_traffic] {
      net::RemoteAftClient client({server.endpoint()});
      for (uint64_t i = 0; i < smoke_traffic && g_shutdown == 0; ++i) {
        auto session = client.StartTransaction();
        if (!session.ok()) {
          continue;
        }
        (void)client.Put(*session, "smoke:" + std::to_string(i % 64), std::to_string(i));
        (void)client.Commit(*session);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_shutdown == 0) {
    // The accept, loop and worker threads do all the work; main just waits for a
    // signal. A short real sleep keeps shutdown latency low without a
    // self-pipe.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("aft-server: shutting down (%llu connections, %llu requests)\n",
              static_cast<unsigned long long>(server.stats().connections_accepted.load()),
              static_cast<unsigned long long>(server.stats().requests_served.load()));
  if (smoke_thread.joinable()) {
    smoke_thread.join();
  }
  metrics_server.Stop();
  server.Stop();
  node.Kill();
  return 0;
}
