#include "src/net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <unordered_map>

#include "src/common/histogram.h"
#include "src/common/io_executor.h"
#include "src/common/logging.h"
#include "src/net/message.h"
#include "src/obs/trace.h"

namespace aft {
namespace net {

// One connection owned by an event loop. Field ownership is split two ways:
//   * loop-thread-only (no lock): the read side of the socket, the read
//     buffer, dispatch sequencing, and epoll interest bookkeeping;
//   * `mu`-guarded: everything worker tasks touch — the response re-sequencing
//     map, the outgoing byte queue and every send on the socket, and the
//     backpressure pause.
// Sends under `mu` and Shutdown() are the only cross-thread socket operations;
// neither can race a close (the last shared_ptr owner closes the fd, and every
// toucher holds a shared_ptr).
struct AftServiceServer::Connection {
  Socket socket;
  size_t loop_index = 0;

  // ---- loop-thread-only ----
  std::string inbuf;
  uint64_t next_dispatch_seq = 0;  // seq assigned to the next decoded request
  uint32_t armed_events = EPOLLIN;

  // Set once (by the loop, or by loop exit); checked by worker tasks so they
  // neither send on nor hand over a dead connection.
  std::atomic<bool> closed{false};

  Mutex mu;
  // Next seq to enter the wire queue: responses leave in request order even
  // when handlers finish out of order.
  uint64_t next_send_seq GUARDED_BY(mu) = 0;
  std::map<uint64_t, FrameBytes> out_of_order GUARDED_BY(mu);
  // Sealed response frames awaiting the socket. Frames keep their payload in
  // arena segments end to end — the flush path gathers header + segments into
  // one writev, so response bytes are never coalesced into a flat buffer.
  std::deque<FrameBytes> outq GUARDED_BY(mu);
  size_t outq_off GUARDED_BY(mu) = 0;   // bytes of outq.front() already sent
  size_t out_bytes GUARDED_BY(mu) = 0;  // total un-sent bytes across outq
  // Reads disarmed for backpressure. Only the loop writes it, but a worker
  // that drains a paused connection must wake the loop to re-arm reads, so
  // the pause decision and the drain are ordered by `mu`.
  bool reads_paused GUARDED_BY(mu) = false;

  bool ReadsPaused() EXCLUDES(mu) {
    MutexLock lock(mu);
    return reads_paused;
  }

  // Sends queued frames until the queue is empty or the socket would block
  // (the loop's EPOLLOUT resumes it); false when the connection died mid-send.
  bool FlushLocked() REQUIRES(mu) {
    // aftlint: hot
    while (!outq.empty()) {
      // Gather up to 64 spans across the queued frames into one writev: each
      // frame contributes its header block plus its payload segments, straight
      // from the arena — no coalescing copy on the way out.
      struct iovec iov[64];
      size_t count = 0;
      size_t skip = outq_off;
      for (const FrameBytes& frame : outq) {
        if (count >= 64) {
          break;
        }
        count += FillFrameIovecs(frame, skip, iov + count, 64 - count);
        skip = 0;
      }
      auto sent = socket.SendSomeV(iov, count);
      if (!sent.ok()) {
        return sent.status().code() == StatusCode::kTimeout;  // Kernel buffer full.
      }
      out_bytes -= *sent;
      outq_off += *sent;
      while (!outq.empty() && outq_off >= outq.front().size()) {
        outq_off -= outq.front().size();
        outq.pop_front();  // Frame done; its segments return to the pool.
      }
    }
    return true;
  }
};

struct AftServiceServer::EventLoop {
  int epoll_fd = -1;
  int wake_fd = -1;  // eventfd; registered in epoll with data.ptr == nullptr
  std::thread thread;
  std::atomic<bool> stop{false};

  Mutex mu;
  std::vector<std::shared_ptr<Connection>> incoming GUARDED_BY(mu);
  // Connections a worker left bytes queued on (EPOLLOUT must be armed) or
  // drained while paused (reads may re-arm).
  std::vector<std::shared_ptr<Connection>> flush_queue GUARDED_BY(mu);

  // ---- loop-thread-only ----
  std::unordered_map<int, std::shared_ptr<Connection>> conns;  // by fd
  // Connections closed during the current event batch. Cleared only after the
  // batch completes, so the raw data.ptr in already-fetched epoll events stays
  // valid even when an earlier event in the same batch closed the connection.
  std::vector<std::shared_ptr<Connection>> graveyard;

  ~EventLoop() {
    if (epoll_fd >= 0) {
      ::close(epoll_fd);
    }
    if (wake_fd >= 0) {
      ::close(wake_fd);
    }
  }

  void Wake() {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }
};

namespace {

// Counts one in-flight request for the lifetime of a HandleRequest call.
class InflightGuard {
 public:
  explicit InflightGuard(std::atomic<uint64_t>& count) : count_(count) {
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  ~InflightGuard() { count_.fetch_sub(1, std::memory_order_relaxed); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  std::atomic<uint64_t>& count_;
};

}  // namespace

AftServiceServer::AftServiceServer(AftNode& node, AftServiceServerOptions options)
    : node_(node), options_(options) {
  auto& reg = obs::MetricsRegistry::Global();
  const obs::MetricLabels labels = {{"node", node_.node_id()}};
  for (uint8_t t = 1; t < rpc_latency_.size(); ++t) {
    const auto type = static_cast<MessageType>(t);
    if (!IsKnownMessageType(type)) {
      continue;
    }
    obs::MetricLabels method_labels = labels;
    method_labels.emplace_back("method", std::string(MessageTypeName(type)));
    rpc_latency_[t] =
        reg.GetHistogram("aft_net_rpc_latency_ms", "Server-side RPC service time (ms)",
                         DefaultLatencyBoundariesMs(), std::move(method_labels));
  }
  auto wrap = [&](const char* metric, const char* help, const std::atomic<uint64_t>& cell) {
    metric_callbacks_.push_back(reg.RegisterCallback(
        metric, help, obs::CallbackType::kCounter, labels,
        [&cell] { return static_cast<double>(cell.load(std::memory_order_relaxed)); }));
  };
  wrap("aft_net_connections_accepted_total", "TCP connections accepted",
       stats_.connections_accepted);
  wrap("aft_net_requests_served_total", "Requests dispatched to a handler",
       stats_.requests_served);
  wrap("aft_net_bad_frames_total", "Frames rejected before dispatch", stats_.bad_frames);
  wrap("aft_net_backpressure_pauses_total", "Connections paused for backpressure",
       stats_.backpressure_pauses);
  wrap("aft_net_backpressure_resumes_total", "Paused connections re-armed after draining",
       stats_.backpressure_resumes);
  metric_callbacks_.push_back(reg.RegisterCallback(
      "aft_net_requests_inflight", "Requests currently executing in a handler",
      obs::CallbackType::kGauge, labels, [this] {
        return static_cast<double>(requests_inflight_.load(std::memory_order_relaxed));
      }));
}

AftServiceServer::~AftServiceServer() { Stop(); }

Status AftServiceServer::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("server already running");
  }
  auto listener = Listener::Bind(options_.port);
  if (!listener.ok()) {
    running_.store(false);
    return listener.status();
  }
  listener_ = std::move(listener).value();
  port_ = listener_.port();
  Status status = StartEventLoops();
  if (!status.ok()) {
    StopEventLoops();
    workers_.reset();
    loops_.clear();
    listener_.Close();
    running_.store(false);
    return status;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void AftServiceServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  listener_.Shutdown();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  listener_.Close();
  // Join the loops first (their exit path shuts every connection down, so
  // blocked clients see EOF), then wait out in-flight worker tasks — they
  // may still queue responses into dead connections, which is harmless.
  // Only after that is it safe to drop the loop and connection objects.
  StopEventLoops();
  {
    MutexLock lock(inflight_mu_);
    while (inflight_ > 0) {
      inflight_cv_.Wait(lock);
    }
  }
  workers_.reset();  // All tasks done; joins the (now idle) worker threads.
  loops_.clear();
  MutexLock lock(mu_);
  connections_.clear();
}

void AftServiceServer::AbandonConnections() {
  // shutdown(2) tears the stream under the loop — pending response sends fail
  // with EPIPE and reads see EOF, so the loop closes the connection exactly as
  // if the process had died mid-frame.
  MutexLock lock(mu_);
  for (auto& conn : connections_) {
    conn->socket.Shutdown();
  }
}

void AftServiceServer::ReapClosed() {
  MutexLock lock(mu_);
  std::erase_if(connections_, [](const std::shared_ptr<Connection>& conn) {
    return conn->closed.load(std::memory_order_acquire);
  });
}

void AftServiceServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (!running_.load(std::memory_order_acquire)) {
        return;  // Clean shutdown woke the accept.
      }
      continue;  // Transient (e.g. peer aborted the handshake).
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    ReapClosed();
    AdoptConnection(std::move(accepted).value());
  }
}

Status AftServiceServer::StartEventLoops() {
  // Named so the contention profiler exposes the pool's queue wait and run
  // time as "net_workers.queue" / "net_workers.run" sites.
  workers_ = std::make_unique<IoExecutor>(
      options_.num_workers > 0 ? options_.num_workers : 8, "net_workers");
  size_t n = options_.num_event_loops;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) {
      n = 1;
    }
    if (n > 8) {
      n = 8;  // I/O loops saturate well before core count on this workload.
    }
  }
  for (size_t i = 0; i < n; ++i) {
    auto loop = std::make_unique<EventLoop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) {
      return Status::Internal(std::string("epoll_create1: ") + std::strerror(errno));
    }
    loop->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (loop->wake_fd < 0) {
      return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // Sentinel: "this readiness is the wake eventfd".
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev) != 0) {
      return Status::Internal(std::string("epoll_ctl(wake): ") + std::strerror(errno));
    }
    loops_.push_back(std::move(loop));
  }
  // Threads start only once every loop constructed, so a failure above never
  // leaves a running thread behind.
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, raw = loop.get()] { EventLoopMain(raw); });
  }
  return Status::Ok();
}

void AftServiceServer::StopEventLoops() {
  for (auto& loop : loops_) {
    loop->stop.store(true, std::memory_order_release);
    loop->Wake();
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) {
      loop->thread.join();
    }
  }
}

void AftServiceServer::AdoptConnection(Socket socket) {
  const Status nonblocking = socket.SetNonBlocking(true);
  if (!nonblocking.ok()) {
    // A blocking socket would stall its whole loop thread — and every
    // connection that loop owns — on the first recv/send. Refuse it; the fd
    // closes when `socket` goes out of scope.
    AFT_LOG(Warn) << "aft server (" << node_.node_id()
                  << "): rejecting connection (cannot set non-blocking): "
                  << nonblocking.ToString();
    socket.Shutdown();
    return;
  }
  auto conn = std::make_shared<Connection>();
  conn->socket = std::move(socket);
  conn->loop_index = next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
  {
    MutexLock lock(mu_);
    connections_.push_back(conn);
  }
  EventLoop* loop = loops_[conn->loop_index].get();
  {
    MutexLock lock(loop->mu);
    loop->incoming.push_back(std::move(conn));
  }
  loop->Wake();
}

void AftServiceServer::EventLoopMain(EventLoop* loop) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!loop->stop.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(loop->epoll_fd, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      AFT_LOG(Warn) << "aft server (" << node_.node_id()
                    << "): epoll_wait failed: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        uint64_t drained;
        // aftlint-allow(loop-blocking): wake_fd is a non-blocking eventfd; read drains and EAGAINs
        while (::read(loop->wake_fd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto* raw = static_cast<Connection*>(events[i].data.ptr);
      if (raw->closed.load(std::memory_order_acquire)) {
        continue;  // Closed by an earlier event in this batch; in graveyard.
      }
      auto it = loop->conns.find(raw->socket.fd());
      if (it == loop->conns.end()) {
        continue;
      }
      const std::shared_ptr<Connection> conn = it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 && conn->ReadsPaused()) {
        // epoll reports error/hangup regardless of the armed interest mask,
        // but a paused (backpressured) connection bounces off HandleReadable's
        // pause guard — the dead fd would level-trigger this loop hot until
        // the flush path happened to fail it. The peer is gone either way;
        // close it now.
        CloseConnection(loop, conn);
        continue;
      }
      if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        HandleReadable(loop, conn);
      }
      if (!conn->closed.load(std::memory_order_acquire) &&
          (events[i].events & EPOLLOUT) != 0) {
        ServiceWritable(loop, conn);
      }
    }
    // Control work handed over by the accept thread and worker tasks. The
    // wake eventfd was drained above, so anything enqueued after the swap
    // re-triggers epoll_wait immediately — no lost wakeups.
    std::vector<std::shared_ptr<Connection>> incoming;
    std::vector<std::shared_ptr<Connection>> flush;
    {
      MutexLock lock(loop->mu);
      incoming.swap(loop->incoming);
      flush.swap(loop->flush_queue);
    }
    for (auto& conn : incoming) {
      const int fd = conn->socket.fd();
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = conn.get();
      if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        conn->closed.store(true, std::memory_order_release);
        conn->socket.Shutdown();
        continue;
      }
      conn->armed_events = EPOLLIN;
      loop->conns.emplace(fd, std::move(conn));
    }
    for (auto& conn : flush) {
      ServiceWritable(loop, conn);
    }
    loop->graveyard.clear();
  }
  // Loop exit: tear every owned connection down so blocked peers see EOF.
  // The fds close once the registry (and any in-flight worker task) drops
  // the last shared_ptr.
  for (auto& [fd, conn] : loop->conns) {
    conn->closed.store(true, std::memory_order_release);
    conn->socket.Shutdown();
  }
  loop->conns.clear();
  loop->graveyard.clear();
}

void AftServiceServer::HandleReadable(EventLoop* loop, const std::shared_ptr<Connection>& conn) {
  if (conn->closed.load(std::memory_order_acquire) || conn->ReadsPaused()) {
    return;  // Stale readiness from earlier in the batch.
  }
  char buf[64 * 1024];
  while (true) {
    auto got = conn->socket.RecvSome(buf, sizeof(buf));
    if (!got.ok()) {
      if (got.status().code() == StatusCode::kTimeout) {
        break;  // Drained; wait for the next readiness event.
      }
      if (got.status().code() != StatusCode::kUnavailable) {
        AFT_LOG(Warn) << "aft server (" << node_.node_id()
                      << "): dropping connection: " << got.status().ToString();
      }
      CloseConnection(loop, conn);
      return;
    }
    conn->inbuf.append(buf, *got);
  }
  if (!ParseAndDispatch(conn)) {
    CloseConnection(loop, conn);
    return;
  }
  UpdateInterest(loop, conn);
}

void AftServiceServer::ServiceWritable(EventLoop* loop, const std::shared_ptr<Connection>& conn) {
  if (conn->closed.load(std::memory_order_acquire)) {
    return;
  }
  bool flushed;
  {
    MutexLock lock(conn->mu);
    flushed = conn->FlushLocked();
  }
  if (!flushed) {
    CloseConnection(loop, conn);
    return;
  }
  // Draining the write backlog may have lifted backpressure; requests parked
  // in the read buffer while paused must be pumped now — no EPOLLIN will fire
  // for bytes we already hold.
  if (UpdateInterest(loop, conn) && !conn->inbuf.empty()) {
    if (!ParseAndDispatch(conn)) {
      CloseConnection(loop, conn);
      return;
    }
    UpdateInterest(loop, conn);
  }
}

bool AftServiceServer::ParseAndDispatch(const std::shared_ptr<Connection>& conn) {
  size_t consumed = 0;
  // aftlint: hot
  while (true) {
    bool full;
    {
      MutexLock lock(conn->mu);
      full = conn->next_dispatch_seq - conn->next_send_seq >= options_.max_pipeline_depth;
      // Pipeline full: pause under the lock, so the worker whose response
      // drains it sees the pause and wakes the loop. No EPOLLIN fires for
      // frames already in `inbuf`; only that wake gets them parsed.
      if (full && !conn->reads_paused) {
        conn->reads_paused = true;
        stats_.backpressure_pauses.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (full) {
      break;
    }
    Frame frame;
    auto n = DecodeFrameFromBuffer(std::string_view(conn->inbuf).substr(consumed), &frame);
    if (!n.ok()) {
      stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
      // aftlint-allow(obs-hot-log): teardown path — logs once, then the connection dies
      AFT_LOG(Warn) << "aft server (" << node_.node_id()
                    << "): dropping connection: " << n.status().ToString();
      conn->inbuf.erase(0, consumed);
      return false;
    }
    if (*n == 0) {
      break;  // Need more bytes.
    }
    consumed += *n;
    if (IsResponse(frame.type)) {
      stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
      conn->inbuf.erase(0, consumed);
      return false;  // A client sending response frames is off-protocol.
    }
    DispatchRequest(conn, conn->next_dispatch_seq++, frame.type, std::move(frame.payload),
                    frame.trace_id);
  }
  conn->inbuf.erase(0, consumed);
  return true;
}

void AftServiceServer::DispatchRequest(const std::shared_ptr<Connection>& conn, uint64_t seq,
                                       MessageType type, std::string payload,
                                       uint64_t trace_id) {
  {
    MutexLock lock(inflight_mu_);
    ++inflight_;
  }
  auto task = [this, conn, seq, type, trace_id, payload = std::move(payload)]() mutable {
    bool bad_frame = false;
    ArenaWriter response;
    HandleRequest(type, payload, trace_id, &bad_frame, response);
    if (bad_frame) {
      stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
    }
    stats_.requests_served.fetch_add(1, std::memory_order_relaxed);
    // Seal can only fail on a >64 MiB response, which no handler produces;
    // ship an empty-payload frame of the right type if it ever does, so the
    // sequencing chain never stalls waiting on a hole.
    auto sealed = SealFrame(ResponseType(type), std::move(response).TakeBuffer());
    QueueResponse(conn, seq, sealed.ok() ? std::move(*sealed) : FrameBytes());
    MutexLock lock(inflight_mu_);
    if (--inflight_ == 0) {
      inflight_cv_.NotifyAll();
    }
  };
  // Pool shut down ⇒ run inline on the loop thread; slower but never lost.
  // Same contract as IoExecutor::ParallelFor.
  if (!workers_->Submit(task)) {
    task();
  }
}

void AftServiceServer::QueueResponse(const std::shared_ptr<Connection>& conn, uint64_t seq,
                                     FrameBytes frame) {
  {
    MutexLock lock(conn->mu);
    const bool was_idle = conn->outq.empty();
    conn->out_of_order[seq] = std::move(frame);
    // Drain the run of consecutive ready responses into the wire queue —
    // this is the FIFO re-sequencing point. Frames MOVE (header + segment
    // pointers); no response byte is copied here.
    bool appended = false;
    while (true) {
      auto it = conn->out_of_order.find(conn->next_send_seq);
      if (it == conn->out_of_order.end()) {
        break;
      }
      conn->out_bytes += it->second.size();
      conn->outq.push_back(std::move(it->second));
      conn->out_of_order.erase(it);
      ++conn->next_send_seq;
      appended = true;
    }
    if (!appended || conn->closed.load(std::memory_order_acquire)) {
      return;
    }
    // On an idle socket this worker sends the run itself and spares the loop
    // handoff. A non-empty queue before the append means the loop already
    // owns the flush (a wake is pending or EPOLLOUT is armed), so the bytes
    // ride with it. The loop is needed only for what the socket would not
    // take (it arms EPOLLOUT; after a failed send its own flush fails and
    // closes the connection) and to re-arm reads on a paused connection.
    bool handoff = conn->reads_paused;
    if (was_idle) {
      (void)conn->FlushLocked();
      handoff = handoff || !conn->outq.empty();
    }
    if (!handoff) {
      return;
    }
  }
  EventLoop* loop = loops_[conn->loop_index].get();
  {
    MutexLock lock(loop->mu);
    loop->flush_queue.push_back(conn);
  }
  loop->Wake();
}

bool AftServiceServer::UpdateInterest(EventLoop* loop, const std::shared_ptr<Connection>& conn) {
  if (conn->closed.load(std::memory_order_acquire)) {
    return false;
  }
  bool want_read;
  bool want_write;
  {
    MutexLock lock(conn->mu);
    const uint64_t depth = conn->next_dispatch_seq - conn->next_send_seq;
    // Hysteresis: pause at the caps, resume at half — a connection hovering
    // at the limit does not thrash epoll_ctl.
    if (conn->reads_paused) {
      want_read = conn->out_bytes <= options_.max_write_buffer_bytes / 2 &&
                  depth <= options_.max_pipeline_depth / 2;
    } else {
      want_read = conn->out_bytes <= options_.max_write_buffer_bytes &&
                  depth < options_.max_pipeline_depth;
    }
    if (!want_read && !conn->reads_paused) {
      stats_.backpressure_pauses.fetch_add(1, std::memory_order_relaxed);
    } else if (want_read && conn->reads_paused) {
      stats_.backpressure_resumes.fetch_add(1, std::memory_order_relaxed);
    }
    conn->reads_paused = !want_read;
    want_write = !conn->outq.empty();
  }
  const uint32_t desired = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  if (desired != conn->armed_events) {
    epoll_event ev{};
    ev.events = desired;
    ev.data.ptr = conn.get();
    (void)::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->socket.fd(), &ev);
    conn->armed_events = desired;
  }
  return want_read;
}

void AftServiceServer::CloseConnection(EventLoop* loop, const std::shared_ptr<Connection>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  const int fd = conn->socket.fd();
  (void)::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  conn->socket.Shutdown();
  auto it = loop->conns.find(fd);
  if (it != loop->conns.end()) {
    loop->graveyard.push_back(std::move(it->second));
    loop->conns.erase(it);
  }
}

void AftServiceServer::HandleRequest(MessageType type, const std::string& payload,
                                     uint64_t trace_id, bool* bad_frame, ArenaWriter& out) {
  const InflightGuard inflight(requests_inflight_);
  const uint8_t type_index = static_cast<uint8_t>(type);
  obs::ScopedHistogramTimer rpc_timer(
      type_index < rpc_latency_.size() ? rpc_latency_[type_index] : nullptr);
  // A frame that passed CRC but fails request decoding is a protocol bug on
  // the peer, not stream corruption: reply with the decode error and keep
  // the connection (framing is still in sync).
  switch (type) {
    case MessageType::kStartTxn: {
      auto request = StartTxnRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      // Adopt the client-minted trace context (0 = unsampled) so the
      // transaction's server-side lifecycle joins the client's trace.
      auto txid = node_.StartTransaction(obs::TraceContext{trace_id});
      StartTxnResponse response;
      if (txid.ok()) {
        response.txid = *txid;
      }
      response.SerializeTo(out, txid.status());
      return;
    }
    case MessageType::kAdoptTxn: {
      auto request = AdoptTxnRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      SerializeEmptyResponseTo(out, node_.AdoptTransaction(request->txid));
      return;
    }
    case MessageType::kGet: {
      auto request = GetRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      auto read = node_.GetVersioned(request->txid, request->key);
      GetResponse response;
      if (read.ok()) {
        response.read = std::move(read).value();
      }
      response.SerializeTo(out, read.status());
      return;
    }
    case MessageType::kMultiGet: {
      auto request = MultiGetRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      auto reads = node_.MultiGet(request->txid, request->keys);
      MultiGetResponse response;
      if (reads.ok()) {
        response.reads = std::move(reads).value();
      }
      response.SerializeTo(out, reads.status());
      return;
    }
    case MessageType::kPut: {
      auto request = PutRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      SerializeEmptyResponseTo(out,
                               node_.Put(request->txid, request->key, std::move(request->value)));
      return;
    }
    case MessageType::kPutBatch: {
      auto request = PutBatchRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      for (WriteOp& op : request->ops) {
        const Status status = node_.Put(request->txid, op.key, std::move(op.value));
        if (!status.ok()) {
          SerializeEmptyResponseTo(out, status);
          return;
        }
      }
      SerializeEmptyResponseTo(out, Status::Ok());
      return;
    }
    case MessageType::kCommit: {
      auto request = CommitRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      auto id = node_.CommitTransaction(request->txid);
      CommitResponse response;
      if (id.ok()) {
        response.id = *id;
      }
      response.SerializeTo(out, id.status());
      return;
    }
    case MessageType::kAbort: {
      auto request = AbortRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      SerializeEmptyResponseTo(out, node_.AbortTransaction(request->txid));
      return;
    }
    case MessageType::kApplyCommits: {
      auto request = ApplyCommitsRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      {
        obs::TraceSpan span(obs::TraceContext{trace_id}, "RemoteApply", node_.node_id());
        span.AddArg("records", std::to_string(request->records.size()));
        node_.ApplyRemoteCommits(request->records);
      }
      ApplyCommitsResponse response;
      response.applied = request->records.size();
      response.SerializeTo(out, Status::Ok());
      return;
    }
    case MessageType::kGetMetrics: {
      auto request = GetMetricsRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      GetMetricsResponse response;
      response.text = obs::MetricsRegistry::Global().Exposition();
      response.SerializeTo(out, Status::Ok());
      return;
    }
    case MessageType::kPing: {
      auto request = PingRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      PingResponse response;
      response.node_id = node_.node_id();
      const Status status = node_.alive()
          ? Status::Ok()
          : Status::Unavailable("aft node " + node_.node_id() + " is down");
      response.SerializeTo(out, status);
      return;
    }
    default:
      *bad_frame = true;
      SerializeEmptyResponseTo(out, Status::InvalidArgument(
          "unhandled message type " + std::to_string(static_cast<int>(type))));
      return;
  }
}

}  // namespace net
}  // namespace aft
