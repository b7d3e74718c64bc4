// The AFT service server: one shim node behind a real TCP socket (§4).
//
// Hosts the full Table-1 API (StartTransaction / Get / MultiGet / Put /
// PutBatch / Commit / Abort) plus the inter-node ApplyCommits multicast
// endpoint and a Ping health check, all against one local `AftNode`. This is
// the process boundary the paper's deployment actually has: `RemoteAftClient`
// and `TcpMulticastBus` are its two client populations.
//
// Concurrency: N epoll-driven I/O loop threads (default = hardware
// concurrency, clamped to [1, 8]) own all sockets in non-blocking mode.
// Decoded requests are handed to the server's own bounded worker pool (an
// `IoExecutor` instance — NOT the process-shared one, which clients park
// blocking fan-out chunks on; sharing it lets saturated client calls starve
// the very responses they are waiting for). Responses are re-sequenced per
// connection so they leave the socket in request order even though handlers
// complete out of order; this is what makes client-side pipelining pay: one
// connection can have many requests in flight, and one slow request delays
// only its followers' responses. A worker whose response is next in sequence
// on an idle socket writes it itself; the loop takes over only what the
// socket would not accept at once (it arms EPOLLOUT).
//
// Backpressure: a connection whose un-sent response bytes exceed
// `max_write_buffer_bytes`, or which has `max_pipeline_depth` requests in
// flight, stops being read (its EPOLLIN is disarmed) until the backlog drains
// below half the cap — a client that stops draining responses or floods
// requests throttles itself, never the server. The pause is published under
// the connection's lock, and a worker that drains a paused connection wakes
// its loop to re-arm it.
//
// Shutdown protocol: `Stop` wakes the blocked accept(2) via shutdown(2) on
// the listener, joins the accept thread, signals each loop's eventfd, joins
// the loop threads (their exit path shuts every connection down), and waits
// for every in-flight worker task to finish. No thread is ever detached, so
// TSan sees every exit.

#ifndef SRC_NET_SERVER_H_
#define SRC_NET_SERVER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/io_executor.h"
#include "src/common/mutex.h"
#include "src/core/aft_node.h"
#include "src/net/frame.h"
#include "src/obs/metrics.h"
#include "src/net/socket.h"

namespace aft {
namespace net {

// One value: the server has one concurrency model. Kept only because
// perfbench's `fig3_tcp` assigns it; the benchmark change that drops that
// assignment removes this enum and `AftServiceServerOptions::threading`.
enum class ServerThreading {
  kEventLoop,
};

struct AftServiceServerOptions {
  uint16_t port = 0;  // 0 = kernel-assigned ephemeral port.
  ServerThreading threading = ServerThreading::kEventLoop;
  // Number of epoll loop threads; 0 = hardware concurrency (clamped to
  // [1, 8] — loops are I/O bound, not compute bound).
  size_t num_event_loops = 0;
  // Worker lanes executing decoded requests (handlers may sleep on simulated
  // storage latency, so the width can exceed core count); 0 = default (8).
  size_t num_workers = 0;
  // Backpressure knobs (see header comment).
  size_t max_write_buffer_bytes = 4u << 20;
  size_t max_pipeline_depth = 256;
};

struct AftServiceServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> requests_served{0};
  // Frames rejected before dispatch: bad magic/version/CRC, unknown type,
  // oversized payload, undecodable request body.
  std::atomic<uint64_t> bad_frames{0};
  // Times a connection's reads were paused for backpressure.
  std::atomic<uint64_t> backpressure_pauses{0};
  // Times a paused connection drained below the hysteresis threshold and
  // had its reads re-armed.
  std::atomic<uint64_t> backpressure_resumes{0};
};

class AftServiceServer {
 public:
  explicit AftServiceServer(AftNode& node, AftServiceServerOptions options = {});
  ~AftServiceServer();

  AftServiceServer(const AftServiceServer&) = delete;
  AftServiceServer& operator=(const AftServiceServer&) = delete;

  // Binds and starts accepting. Idempotent failure: a dead port returns the
  // bind error and leaves the server stopped.
  Status Start();

  // Clean shutdown: stops accepting, tears down live connections, joins all
  // threads and drains in-flight worker tasks. Safe to call twice.
  void Stop();

  // Test-only crash simulation ("kill -9 between two frames"): shutdown(2)
  // every live connection socket immediately WITHOUT draining workers, so
  // in-flight requests observe a torn connection exactly as if the process
  // died. Callable from inside a handler (e.g. an AftNode crash hook).
  void AbandonConnections();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // The bound port; valid after a successful Start.
  uint16_t port() const { return port_; }
  NetEndpoint endpoint() const { return NetEndpoint{"127.0.0.1", port_}; }
  AftNode& node() { return node_; }
  const AftServiceServerStats& stats() const { return stats_; }

 private:
  // Defined in server.cc; the loop thread owns each connection's fd and read
  // buffer, worker tasks only touch the mutex-guarded response state.
  struct Connection;
  struct EventLoop;

  void AcceptLoop();
  // Decodes + dispatches one request; the response payload (encoded status +
  // body) is appended into `out` as arena segments — the frame layer sends
  // them with writev, no flat-string coalescing on the response path.
  void HandleRequest(MessageType type, const std::string& payload, uint64_t trace_id,
                     bool* bad_frame, ArenaWriter& out);
  // Drops closed connections from the registry (called per accept).
  void ReapClosed();

  Status StartEventLoops();
  void StopEventLoops();
  void EventLoopMain(EventLoop* loop);
  void AdoptConnection(Socket socket);
  void HandleReadable(EventLoop* loop, const std::shared_ptr<Connection>& conn);
  // Flush + interest update + resume-paused-reads, the post-write pump.
  void ServiceWritable(EventLoop* loop, const std::shared_ptr<Connection>& conn);
  bool ParseAndDispatch(const std::shared_ptr<Connection>& conn);
  void DispatchRequest(const std::shared_ptr<Connection>& conn, uint64_t seq,
                       MessageType type, std::string payload, uint64_t trace_id);
  void QueueResponse(const std::shared_ptr<Connection>& conn, uint64_t seq, FrameBytes frame);
  // Re-decides the backpressure pause and re-arms epoll; true when reads are
  // armed.
  bool UpdateInterest(EventLoop* loop, const std::shared_ptr<Connection>& conn);
  void CloseConnection(EventLoop* loop, const std::shared_ptr<Connection>& conn);

  AftNode& node_;
  const AftServiceServerOptions options_;
  uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  Listener listener_;
  std::thread accept_thread_;

  Mutex mu_;
  std::vector<std::shared_ptr<Connection>> connections_ GUARDED_BY(mu_);

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<size_t> next_loop_{0};
  // Request-execution lanes. Per-server, never the process-shared executor:
  // shared-pool workers block inside client fan-out RPCs, and a server queued
  // behind them could never produce the responses that would unblock them.
  std::unique_ptr<IoExecutor> workers_;

  // In-flight worker tasks; Stop blocks until zero so a task can never
  // outlive the server object it references.
  Mutex inflight_mu_;
  CondVar inflight_cv_;
  size_t inflight_ GUARDED_BY(inflight_mu_) = 0;

  AftServiceServerStats stats_;

  // Per-method service latency (aft_net_rpc_latency_ms{node=,method=}),
  // indexed by the request MessageType octet; nullptr for unknown types.
  std::array<obs::Histogram*, 16> rpc_latency_{};
  // Requests currently inside HandleRequest; exposed as the
  // aft_net_requests_inflight gauge.
  std::atomic<uint64_t> requests_inflight_{0};
  std::vector<obs::ScopedMetricCallback> metric_callbacks_;
};

}  // namespace net
}  // namespace aft

#endif  // SRC_NET_SERVER_H_
