// Plaintext HTTP exporter for the metrics registry and the tracer, so a real
// Prometheus scraper (or `curl`) can poll a node:
//
//   GET /metrics  ->  text/plain; version=0.0.4   Prometheus exposition
//   GET /traces   ->  application/json            chrome://tracing event array
//
// Deliberately minimal: one blocking accept thread, one request per
// connection, GET only. It lives in src/obs (raw POSIX sockets, not
// src/net's Socket) so the observability layer stays below the transport it
// instruments — aft_net depends on aft_obs, never the reverse.

#ifndef SRC_OBS_METRICS_HTTP_H_
#define SRC_OBS_METRICS_HTTP_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace aft {
namespace obs {

class MetricsHttpServer {
 public:
  MetricsHttpServer(MetricsRegistry& registry, Tracer& tracer)
      : registry_(registry), tracer_(tracer) {}
  ~MetricsHttpServer() { Stop(); }

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  // Binds 0.0.0.0:`port` (0 = kernel-assigned, see port()) and starts the
  // accept thread.
  Status Start(uint16_t port);
  void Stop();

  // The bound port, valid after a successful Start().
  uint16_t port() const { return port_; }

 private:
  void Loop();
  void ServeHttpRequest(int fd);

  MetricsRegistry& registry_;
  Tracer& tracer_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
};

}  // namespace obs
}  // namespace aft

#endif  // SRC_OBS_METRICS_HTTP_H_
