// Tests for the observability layer: metrics registry exactness and
// exposition format, trace ring semantics, trace propagation across the real
// TCP wire, the kGetMetrics RPC, and the plaintext HTTP exporter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/deployment.h"
#include "src/common/contention.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/common/mutex.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/metrics_http.h"
#include "src/obs/trace.h"
#include "src/storage/sim_dynamo.h"

namespace aft {
namespace {

using net::AftServiceServer;
using net::NetEndpoint;
using net::RemoteAftClient;
using net::RemoteAftClientOptions;
using net::Socket;
using net::TcpConnect;
using obs::CallbackType;
using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsHttpServer;
using obs::MetricsRegistry;
using obs::TraceContext;
using obs::Tracer;
using obs::TraceSpan;

SimDynamoOptions InstantDynamo() {
  SimDynamoOptions options;
  options.profile = EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero()};
  options.staleness = StalenessModel{};
  options.txn_call = LatencyModel::Zero();
  return options;
}

RemoteAftClientOptions FastClient() {
  RemoteAftClientOptions options;
  options.connect_timeout = std::chrono::seconds(2);
  options.call_timeout = std::chrono::seconds(5);
  options.initial_backoff = std::chrono::milliseconds(1);
  options.max_backoff = std::chrono::milliseconds(20);
  options.max_attempts = 2;
  return options;
}

// ---- Instruments ------------------------------------------------------------

TEST(MetricsTest, ConcurrentCounterIncrementsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Increment();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(MetricsTest, GaugeMovesBothWays) {
  Gauge gauge;
  gauge.Set(10.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 10.5);
  gauge.Add(2.0);
  gauge.Sub(0.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 12.0);
}

TEST(MetricsTest, HistogramBucketsFollowLeSemantics) {
  Histogram hist({1.0, 2.0, 4.0});
  // A value equal to a boundary belongs to that boundary's bucket (le).
  hist.Observe(1.0);
  hist.Observe(1.5);
  hist.Observe(4.0);
  hist.Observe(100.0);  // +Inf bucket.
  const std::vector<uint64_t> cumulative = hist.CumulativeCounts();
  ASSERT_EQ(cumulative.size(), 4u);
  EXPECT_EQ(cumulative[0], 1u);  // le=1
  EXPECT_EQ(cumulative[1], 2u);  // le=2
  EXPECT_EQ(cumulative[2], 3u);  // le=4
  EXPECT_EQ(cumulative[3], 4u);  // +Inf
  EXPECT_EQ(hist.Count(), 4u);
  EXPECT_DOUBLE_EQ(hist.Sum(), 106.5);
}

TEST(MetricsTest, ConcurrentHistogramObservationsAreExact) {
  // A long bench run: 80k samples from 8 threads, no per-thread merging.
  Histogram hist(FineLatencyBoundariesMs());
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist.Observe(static_cast<double>(t) + 1.0);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(hist.Count(), kThreads * kPerThread);
  // Sum of (1 + 2 + ... + 8) * kPerThread.
  EXPECT_DOUBLE_EQ(hist.Sum(), 36.0 * kPerThread);
  // Values 1..8 ms in equal numbers: the median is 4 ms and the maximum 8 ms.
  EXPECT_NEAR(hist.Quantile(0.5), 4.0, 0.04);
  EXPECT_NEAR(hist.Quantile(1.0), 8.0, 0.08);
}

// ---- Registry + exposition --------------------------------------------------

TEST(MetricsRegistryTest, ExpositionRendersAllTypesDeterministically) {
  MetricsRegistry registry;
  registry.GetCounter("test_ops_total", "Operations", {{"node", "a"}})->Increment(3);
  registry.GetGauge("test_depth", "Queue depth")->Set(2.5);
  Histogram* hist =
      registry.GetHistogram("test_latency_ms", "Latency (ms)", {1.0, 2.0}, {{"op", "get"}});
  hist->Observe(0.5);
  hist->Observe(1.5);
  hist->Observe(9.0);

  const std::string expected =
      "# HELP test_depth Queue depth\n"
      "# TYPE test_depth gauge\n"
      "test_depth 2.5\n"
      "# HELP test_latency_ms Latency (ms)\n"
      "# TYPE test_latency_ms histogram\n"
      "test_latency_ms_bucket{op=\"get\",le=\"1\"} 1\n"
      "test_latency_ms_bucket{op=\"get\",le=\"2\"} 2\n"
      "test_latency_ms_bucket{op=\"get\",le=\"+Inf\"} 3\n"
      "test_latency_ms_sum{op=\"get\"} 11\n"
      "test_latency_ms_count{op=\"get\"} 3\n"
      "# HELP test_ops_total Operations\n"
      "# TYPE test_ops_total counter\n"
      "test_ops_total{node=\"a\"} 3\n";
  EXPECT_EQ(registry.Exposition(), expected);
}

TEST(MetricsRegistryTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("test_esc_total", "x", {{"k", "a\"b\\c\nd"}})->Increment();
  const std::string exposition = registry.Exposition();
  EXPECT_NE(exposition.find("test_esc_total{k=\"a\\\"b\\\\c\\nd\"} 1\n"), std::string::npos)
      << exposition;
}

TEST(MetricsRegistryTest, SameNameAndLabelsIsTheSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test_same_total", "x", {{"l", "1"}});
  Counter* b = registry.GetCounter("test_same_total", "x", {{"l", "1"}});
  EXPECT_EQ(a, b);
  Counter* other = registry.GetCounter("test_same_total", "x", {{"l", "2"}});
  EXPECT_NE(a, other);
}

TEST(MetricsRegistryTest, TypeConflictDegradesToDetachedInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("test_conflict", "x")->Increment();
  // Same name re-requested as a gauge: usable (never nullptr) but detached.
  Gauge* gauge = registry.GetGauge("test_conflict", "x");
  ASSERT_NE(gauge, nullptr);
  gauge->Set(5);
  const std::string exposition = registry.Exposition();
  // The original counter renders once; the detached gauge never does.
  EXPECT_NE(exposition.find("test_conflict 1\n"), std::string::npos);
  EXPECT_EQ(exposition.find("test_conflict 5"), std::string::npos);
}

TEST(MetricsRegistryTest, CallbacksReadLiveValuesAndUnregisterOnDestruction) {
  MetricsRegistry registry;
  double level = 7.0;
  {
    auto handle = registry.RegisterCallback("test_level", "x", CallbackType::kGauge, {},
                                            [&level] { return level; });
    double value = 0;
    ASSERT_TRUE(registry.ReadValue("test_level", {}, &value));
    EXPECT_DOUBLE_EQ(value, 7.0);
    level = 9.0;
    ASSERT_TRUE(registry.ReadValue("test_level", {}, &value));
    EXPECT_DOUBLE_EQ(value, 9.0);
    EXPECT_NE(registry.Exposition().find("test_level 9\n"), std::string::npos);
  }
  // Handle destroyed: the family renders nothing (no dangling callback).
  EXPECT_EQ(registry.Exposition().find("test_level "), std::string::npos);
}

TEST(MetricsRegistryTest, ReregisteringReplacesAndSupersededHandleIsInert) {
  MetricsRegistry registry;
  auto first = registry.RegisterCallback("test_replace", "x", CallbackType::kGauge, {},
                                         [] { return 1.0; });
  auto second = registry.RegisterCallback("test_replace", "x", CallbackType::kGauge, {},
                                          [] { return 2.0; });
  double value = 0;
  ASSERT_TRUE(registry.ReadValue("test_replace", {}, &value));
  EXPECT_DOUBLE_EQ(value, 2.0);
  // Destroying the superseded handle must NOT remove the live callback.
  first = obs::ScopedMetricCallback();
  ASSERT_TRUE(registry.ReadValue("test_replace", {}, &value));
  EXPECT_DOUBLE_EQ(value, 2.0);
}

// ---- Tracer -----------------------------------------------------------------

TEST(TraceTest, SamplesOneInN) {
  Tracer tracer;
  tracer.SetSampleEveryN(0);
  EXPECT_FALSE(tracer.StartTrace().sampled());
  tracer.SetSampleEveryN(2);
  int sampled = 0;
  for (int i = 0; i < 10; ++i) {
    if (tracer.StartTrace().sampled()) {
      ++sampled;
    }
  }
  EXPECT_EQ(sampled, 5);
}

TEST(TraceTest, RingOverwritesOldestAndDumpsOldestFirst) {
  Tracer tracer(4);
  for (uint64_t i = 1; i <= 6; ++i) {
    obs::TraceEvent event;
    event.trace_id = 1;
    event.name = "span" + std::to_string(i);
    event.start_us = i;
    tracer.Record(std::move(event));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.total_recorded(), 6u);
  const std::string json = tracer.DumpJson();
  // Events 1 and 2 were overwritten; 3..6 remain, oldest first.
  EXPECT_EQ(json.find("span1"), std::string::npos);
  EXPECT_EQ(json.find("span2"), std::string::npos);
  EXPECT_LT(json.find("span3"), json.find("span4"));
  EXPECT_LT(json.find("span4"), json.find("span5"));
  EXPECT_LT(json.find("span5"), json.find("span6"));
  EXPECT_EQ(json.front(), '[');
}

TEST(TraceTest, UnsampledSpansRecordNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.SetSampleEveryN(0);
  tracer.Clear();
  const uint64_t before = tracer.total_recorded();
  {
    TraceSpan span(TraceContext{}, "ShouldNotAppear");
    span.AddArg("k", "v");
  }
  EXPECT_EQ(tracer.total_recorded(), before);
}

TEST(TraceTest, JsonEscapesArgValues) {
  Tracer tracer(4);
  obs::TraceEvent event;
  event.trace_id = 1;
  event.name = "quote\"name";
  event.args.emplace_back("key", "line\nbreak");
  tracer.Record(std::move(event));
  const std::string json = tracer.DumpJson();
  EXPECT_NE(json.find("quote\\\"name"), std::string::npos) << json;
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos) << json;
}

// ---- Histogram::Quantile ----------------------------------------------------

// Exact nearest-rank q-quantile of `samples`: the order statistic Quantile
// estimates.
double SortedQuantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const size_t rank =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size()))));
  return samples[rank - 1];
}

TEST(HistogramQuantileTest, FineBoundariesEstimateWithinOnePercent) {
  const std::vector<double>& bounds = FineLatencyBoundariesMs();
  EXPECT_DOUBLE_EQ(bounds.front(), 0.001);  // 1 us
  EXPECT_GE(bounds.back(), 600000.0);       // 10 min
  Histogram hist(bounds);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> exponent(0.0, 7.0);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over [1 us, 10 s).
    samples.push_back(0.001 * std::pow(10.0, exponent(rng)));
    hist.Observe(samples.back());
  }
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    const double exact = SortedQuantile(samples, q);
    EXPECT_NEAR(hist.Quantile(q), exact, 0.01 * exact) << "q=" << q;
  }
}

TEST(HistogramQuantileTest, EmptySingleSampleAndInfBucket) {
  Histogram empty(FineLatencyBoundariesMs());
  EXPECT_EQ(empty.Quantile(0.0), 0.0);
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_EQ(empty.Quantile(1.0), 0.0);

  Histogram single(FineLatencyBoundariesMs());
  single.Observe(5.0);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_NEAR(single.Quantile(q), 5.0, 0.05) << "q=" << q;
  }

  // Interpolation inside one bucket: four values in (10, 20].
  Histogram linear({10.0, 20.0});
  for (int i = 0; i < 4; ++i) {
    linear.Observe(12.0);
  }
  EXPECT_DOUBLE_EQ(linear.Quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(linear.Quantile(1.0), 20.0);

  // A rank in the +Inf bucket answers the last boundary.
  Histogram tail({1.0, 2.0, 4.0});
  tail.Observe(1.5);
  tail.Observe(100.0);
  EXPECT_DOUBLE_EQ(tail.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(tail.Quantile(1.0), 4.0);
}

// ---- LogScope (satellite) ---------------------------------------------------

TEST(LogScopeTest, NestsAndRestores) {
  EXPECT_EQ(LogScope::Current(), "");
  {
    LogScope outer("node=a");
    EXPECT_EQ(LogScope::Current(), "node=a");
    {
      LogScope inner("node=a txn=t1");
      EXPECT_EQ(LogScope::Current(), "node=a txn=t1");
    }
    EXPECT_EQ(LogScope::Current(), "node=a");
  }
  EXPECT_EQ(LogScope::Current(), "");
}

// ---- End-to-end over TCP ----------------------------------------------------

ClusterOptions TcpManualCluster(size_t nodes) {
  ClusterOptions options;
  options.num_nodes = nodes;
  options.transport = ClusterTransport::kTcp;
  options.start_background_threads = false;
  return options;
}

TEST(NetObsTest, GetMetricsRpcReturnsPrometheusText) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  AftNode node("obs-rpc-node", storage, clock);
  ASSERT_TRUE(node.Start().ok());
  AftServiceServer server(node);
  ASSERT_TRUE(server.Start().ok());
  RemoteAftClient client({server.endpoint()}, FastClient());

  // Run one commit so the interesting metrics are non-zero.
  auto session = client.StartTransaction();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(client.Put(*session, "k", "v").ok());
  ASSERT_TRUE(client.Commit(*session).ok());

  auto text = client.GetMetrics(0);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // Node lifecycle counters, with this node's label.
  EXPECT_NE(text->find("aft_node_txns_committed_total{node=\"obs-rpc-node\"} 1"),
            std::string::npos);
  // Commit latency histogram.
  EXPECT_NE(text->find("# TYPE aft_node_commit_latency_ms histogram"), std::string::npos);
  EXPECT_NE(text->find("aft_node_commit_latency_ms_bucket"), std::string::npos);
  // Cache hit/miss counters (callback metrics).
  EXPECT_NE(text->find("aft_commit_set_cache_lookup_hits_total"), std::string::npos);
  EXPECT_NE(text->find("aft_node_data_cache_hits_total"), std::string::npos);
  // Server-side RPC metrics and pipeline gauge.
  EXPECT_NE(text->find("aft_net_rpc_latency_ms_bucket"), std::string::npos);
  EXPECT_NE(text->find("aft_net_requests_inflight"), std::string::npos);
  // Storage engine counters.
  EXPECT_NE(text->find("aft_storage_puts_total{engine=\"dynamodb\"}"), std::string::npos);

  node.Kill();
  server.Stop();
}

TEST(NetObsTest, TracePropagatesClientToServerToGossipToRemoteApply) {
  Tracer& tracer = Tracer::Global();
  tracer.SetSampleEveryN(1);
  tracer.Clear();

  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  ClusterDeployment cluster(storage, clock, TcpManualCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  RemoteAftClient client(cluster.ServiceEndpoints(), FastClient());

  auto session = client.StartTransaction();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->trace.sampled());
  ASSERT_TRUE(client.Put(*session, "traced-key", "traced-value").ok());
  ASSERT_TRUE(client.Commit(*session).ok());
  cluster.bus().RunOnce();  // Gossip: broadcast + remote apply.

  tracer.SetSampleEveryN(0);
  const std::string json = tracer.DumpJson();
  const std::string id = std::to_string(session->trace.trace_id);
  // Every lifecycle stage appears, all tagged with the client-minted id.
  for (const char* span : {"\"ClientStartTxn\"", "\"StartTxn\"", "\"ClientCommit\"",
                           "\"Commit\"", "\"CommitFlush\"", "\"CommitRecordWrite\"",
                           "\"GossipBroadcast\"", "\"RemoteApply\""}) {
    EXPECT_NE(json.find(span), std::string::npos) << "missing " << span << " in\n" << json;
  }
  EXPECT_NE(json.find("\"trace_id\":" + id), std::string::npos) << json;
  // The GossipBroadcast and RemoteApply spans carry the same trace id (they
  // appear after the commit spans in ring order).
  const size_t gossip_pos = json.find("\"GossipBroadcast\"");
  ASSERT_NE(gossip_pos, std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":" + id, gossip_pos), std::string::npos);
}

TEST(NetObsTest, HttpExporterServesMetricsAndTraces) {
  MetricsRegistry::Global().GetCounter("test_http_smoke_total", "x")->Increment();
  MetricsHttpServer server(MetricsRegistry::Global(), Tracer::Global());
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_NE(server.port(), 0);

  auto get = [&](const std::string& request_line) {
    auto socket = TcpConnect(NetEndpoint{"127.0.0.1", server.port()}, std::chrono::seconds(2));
    EXPECT_TRUE(socket.ok());
    const std::string request = request_line + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
    EXPECT_TRUE(socket->SendAll(request.data(), request.size()).ok());
    (void)socket->SetRecvTimeout(std::chrono::seconds(2));
    std::string response;
    char buf[4096];
    while (true) {
      auto n = socket->RecvSome(buf, sizeof(buf));
      if (!n.ok() || *n == 0) {
        break;
      }
      response.append(buf, *n);
    }
    return response;
  };

  const std::string metrics = get("GET /metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("test_http_smoke_total"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE"), std::string::npos);

  const std::string traces = get("GET /traces");
  EXPECT_NE(traces.find("200 OK"), std::string::npos);
  EXPECT_NE(traces.find("application/json"), std::string::npos);

  EXPECT_NE(get("GET /nope").find("404"), std::string::npos);
  EXPECT_NE(get("POST /metrics").find("405"), std::string::npos);

  server.Stop();
}

// Sends `raw` verbatim and reads until EOF — the exporter speaks
// Connection: close, so EOF delimits the response.
std::string RawHttp(uint16_t port, const std::string& raw) {
  auto socket = TcpConnect(NetEndpoint{"127.0.0.1", port}, std::chrono::seconds(2));
  EXPECT_TRUE(socket.ok());
  if (!socket.ok()) {
    return "";
  }
  EXPECT_TRUE(socket->SendAll(raw.data(), raw.size()).ok());
  (void)socket->SetRecvTimeout(std::chrono::seconds(2));
  std::string response;
  char buf[4096];
  while (true) {
    auto n = socket->RecvSome(buf, sizeof(buf));
    if (!n.ok() || *n == 0) {
      break;
    }
    response.append(buf, *n);
  }
  return response;
}

// Every response, success or error, must carry a correct Content-Length and
// Connection: close — scrapers read to EOF and reuse nothing, and a missing
// length on an error path desyncs pipelined clients (metrics_http.cc routes
// every path through one response builder; this test pins that).
void ExpectFramed(const std::string& response, const std::string& expect_status) {
  EXPECT_NE(response.find(expect_status), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos) << response;
  const size_t cl = response.find("Content-Length: ");
  ASSERT_NE(cl, std::string::npos) << response;
  const size_t body_start = response.find("\r\n\r\n");
  ASSERT_NE(body_start, std::string::npos) << response;
  const size_t declared = std::stoul(response.substr(cl + 16));
  EXPECT_EQ(response.size() - (body_start + 4), declared) << response;
}

TEST(ObsHttpTest, ErrorResponsesCarryFramingHeaders) {
  MetricsHttpServer server(MetricsRegistry::Global(), Tracer::Global());
  ASSERT_TRUE(server.Start(0).ok());

  ExpectFramed(RawHttp(server.port(), "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"),
               "404 Not Found");
  const std::string method_not_allowed =
      RawHttp(server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  ExpectFramed(method_not_allowed, "405 Method Not Allowed");
  EXPECT_NE(method_not_allowed.find("Allow: GET\r\n"), std::string::npos);
  // Request line with no second space: malformed.
  ExpectFramed(RawHttp(server.port(), "GET /metrics\r\n\r\n"), "400 Bad Request");
  // Headers that never terminate within the exporter's 8 KiB cap.
  ExpectFramed(RawHttp(server.port(),
                       "GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(9000, 'a')),
               "400 Bad Request");

  server.Stop();
}

TEST(ObsHttpTest, HealthSurfaceEndpoints) {
  MetricsHttpServer server(MetricsRegistry::Global(), Tracer::Global());
  ASSERT_TRUE(server.Start(0).ok());
  auto get = [&](const std::string& path) {
    return RawHttp(server.port(), "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
  };

  // Liveness always answers ok.
  const std::string healthz = get("/healthz");
  ExpectFramed(healthz, "200 OK");
  EXPECT_NE(healthz.find("ok\n"), std::string::npos);

  // Readiness: vacuously ready, then a failing check flips to 503, and
  // releasing the check restores 200.
  EXPECT_NE(get("/readyz").find("200 OK"), std::string::npos);
  {
    obs::ScopedReadyCheck failing = obs::RegisterReadyCheck(
        "test_gate", [] { return std::make_pair(false, std::string("not yet")); });
    const std::string not_ready = get("/readyz");
    ExpectFramed(not_ready, "503 Service Unavailable");
    EXPECT_NE(not_ready.find("test_gate: FAIL not yet"), std::string::npos);

    obs::ScopedReadyCheck passing = obs::RegisterReadyCheck(
        "test_ok", [] { return std::make_pair(true, std::string()); });
    const std::string mixed = get("/readyz");
    EXPECT_NE(mixed.find("503"), std::string::npos);  // One FAIL fails the whole.
    EXPECT_NE(mixed.find("test_ok: ok"), std::string::npos);
  }
  EXPECT_NE(get("/readyz").find("200 OK"), std::string::npos);

  // /varz renders published keys plus the build/process built-ins.
  obs::SetVarz("test.flag", "42");
  const std::string varz = get("/varz");
  ExpectFramed(varz, "200 OK");
  EXPECT_NE(varz.find("test.flag: 42"), std::string::npos);
  EXPECT_NE(varz.find("build.mode: "), std::string::npos);
  EXPECT_NE(varz.find("proc.uptime_s: "), std::string::npos);

  // /debug/contention renders the ranked site table (the named mutex below
  // guarantees at least one row exists).
  Mutex named("test.http_surface");
  { MutexLock lock(named); }
  const std::string contention = get("/debug/contention");
  ExpectFramed(contention, "200 OK");
  EXPECT_NE(contention.find("contention sites"), std::string::npos);
  EXPECT_NE(contention.find("test.http_surface"), std::string::npos);

  // The contention bridge: scraping /metrics exposes per-site counters.
  const std::string metrics = get("/metrics");
  EXPECT_NE(metrics.find("aft_lock_wait_seconds_total"), std::string::npos);
  EXPECT_NE(metrics.find("lock=\"test.http_surface\""), std::string::npos);

  server.Stop();
}

}  // namespace
}  // namespace aft
