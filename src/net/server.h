// The AFT service server: one shim node behind a real TCP socket (§4).
//
// Hosts the full Table-1 API (StartTransaction / Get / MultiGet / Put /
// PutBatch / Commit / Abort) plus the inter-node ApplyCommits multicast
// endpoint and a Ping health check, all against one local `AftNode`. This is
// the process boundary the paper's deployment actually has: `RemoteAftClient`
// and `TcpMulticastBus` are its two client populations.
//
// Concurrency: one pool of `kServerPoolThreads` identical threads, leader/
// follower style, plus the accept thread. Every idle pool thread waits in
// epoll_wait on one shared epoll set where each connection is armed
// EPOLLONESHOT, so a readiness event wakes exactly one thread. That thread
// owns the connection's I/O step: it reads to EAGAIN, decodes and
// sequence-stamps the complete frames, and re-arms the connection. It then
// queues frames 2..k for the other pool threads (an eventfd in the same
// epoll set wakes one of them per frame) and serves frame 1 itself, so a
// request costs no thread hand-off and pipelined requests still run
// concurrently. A handler may block (storage latency, fdatasync): the
// connection is re-armed before serving, and the other pool threads keep
// waiting in epoll_wait. The pool is per-server, never the process-shared
// `IoExecutor`: shared-pool workers block inside client fan-out RPCs, and a
// server queued behind them could never produce the responses that would
// unblock them.
//
// Responses are re-sequenced per connection so they leave the socket in
// request order even though handlers complete out of order; this is what
// makes client-side pipelining pay: one connection can have many requests in
// flight, and one slow request delays only its followers' responses. The
// thread whose response is next in sequence on an idle socket writes it
// itself; what the socket would not accept at once waits for EPOLLOUT.
//
// Backpressure: a connection whose un-sent response bytes exceed
// `max_write_buffer_bytes`, or which has `max_pipeline_depth` requests in
// flight, stops being read (EPOLLIN is left out of its re-arm) until the
// backlog drains below half the cap — a client that stops draining
// responses or floods requests throttles itself, never the server. The
// thread that drains a paused connection below the threshold takes its I/O
// step and parses the frames already buffered.
//
// Shutdown protocol: `Stop` wakes the blocked accept(2) via shutdown(2) on
// the listener, joins the accept thread, shuts every connection down, then
// wakes the pool through the eventfd; each pool thread finishes the request
// it serves, drains the queued frames and exits. No thread is ever detached,
// so TSan sees every exit.

#ifndef SRC_NET_SERVER_H_
#define SRC_NET_SERVER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

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

// Pool threads per server. Each reads, serves and writes; handlers may sleep
// on simulated storage latency or fdatasync, so the width exceeds the core
// count. With the accept thread a server runs 13 threads.
inline constexpr size_t kServerPoolThreads = 12;

struct AftServiceServerOptions {
  uint16_t port = 0;  // 0 = kernel-assigned ephemeral port.
  ServerThreading threading = ServerThreading::kEventLoop;
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

  // Clean shutdown: stops accepting, tears down live connections, lets the
  // pool finish the requests it serves and the queued ones, and joins every
  // thread. Safe to call twice.
  void Stop();

  // Test-only crash simulation ("kill -9 between two frames"): shutdown(2)
  // every live connection socket immediately WITHOUT draining the pool, so
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
  // Defined in server.cc; the thread holding a connection's I/O step owns
  // its read buffer, everything else is mutex-guarded.
  struct Connection;
  // One decoded, sequence-stamped request frame.
  struct Request {
    std::shared_ptr<Connection> conn;
    uint64_t seq = 0;
    MessageType type = MessageType::kPing;
    std::string payload;
    uint64_t trace_id = 0;
  };

  void AcceptLoop();
  // Decodes + dispatches one request; the response payload (encoded status +
  // body) is appended into `out` as arena segments — the frame layer sends
  // them with writev, no flat-string coalescing on the response path.
  void HandleRequest(MessageType type, const std::string& payload, uint64_t trace_id,
                     bool* bad_frame, ArenaWriter& out);

  void AdoptConnection(Socket socket);
  void PoolThreadMain();
  // Blocks until this thread has requests to serve: a queued frame, or the
  // frames of the next readiness event's I/O step. Empty only on shutdown.
  std::vector<Request> NextRequests();
  // The I/O step; the caller holds the connection's `io_owned` token. Flushes
  // queued responses, reads to EAGAIN, decodes and stamps complete frames,
  // then re-arms the connection and returns the decoded requests.
  std::vector<Request> RunIoStep(const std::shared_ptr<Connection>& conn, uint32_t events);
  // Reads to EAGAIN; false when the peer is gone.
  bool ReadAvailable(Connection& conn);
  // Decodes complete frames into `requests`, stamping each with its seq, until
  // the buffer runs out or the pipeline fills (`*stalled`); false on a bad
  // frame.
  bool ParseFrames(const std::shared_ptr<Connection>& conn, std::vector<Request>* requests,
                   bool* stalled);
  // Runs one request and queues its response; returns the requests of an I/O
  // step the response made this thread take (a partial send or a resumed
  // paused connection), usually none.
  std::vector<Request> Serve(Request request);
  std::vector<Request> QueueResponse(const std::shared_ptr<Connection>& conn, uint64_t seq,
                                     FrameBytes frame);
  // Queues requests[1..] for other pool threads, waking one per request, and
  // leaves requests[0] to the caller.
  void HandOff(std::vector<Request>& requests);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  std::shared_ptr<Connection> FindConnection(uint64_t id);

  AftNode& node_;
  const AftServiceServerOptions options_;
  uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  Listener listener_;
  std::thread accept_thread_;

  // One epoll set for the whole pool: connections are keyed by id in
  // `data.u64`; id 0 is the hand-off eventfd (EFD_SEMAPHORE, one count per
  // queued request).
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::vector<std::thread> pool_;
  std::atomic<bool> stopping_{false};

  Mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> connections_ GUARDED_BY(mu_);
  uint64_t next_connection_id_ GUARDED_BY(mu_) = 1;

  // Frames 2..k of an I/O step, waiting for a pool thread.
  Mutex queue_mu_;
  std::deque<Request> queue_ GUARDED_BY(queue_mu_);

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
