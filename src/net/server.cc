#include "src/net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>

#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/net/message.h"
#include "src/obs/trace.h"

namespace aft {
namespace net {

// One connection in the pool's epoll set. Field ownership:
//   * the thread holding the I/O step (`io_owned`, taken under `mu`) alone
//     reads the socket and owns the read buffer;
//   * `mu`-guarded: the I/O-step token, request sequencing, the response
//     re-sequencing map, the outgoing byte queue and every send on the
//     socket, the backpressure pause, and every re-arm of the registration.
// Readiness events are hints. The connection is re-armed under `mu`, by the
// thread releasing the I/O step or by a serving thread that takes the step
// when no thread holds it. A hint that finds the step held is dropped: the
// holder's re-arm re-reports whatever is still ready.
// Sends under `mu` and Shutdown() are the only cross-thread socket operations;
// neither can race a close (the last shared_ptr owner closes the fd, and every
// toucher holds a shared_ptr).
struct AftServiceServer::Connection {
  Socket socket;
  uint64_t id = 0;  // epoll data.u64; fixed before the connection is published

  // ---- I/O-step holder only ----
  std::string inbuf;

  // Set once (by the close path or by Stop); a closed connection is never
  // read or re-armed again, and responses to it are dropped.
  std::atomic<bool> closed{false};

  Mutex mu;
  bool io_owned GUARDED_BY(mu) = false;
  uint64_t next_dispatch_seq GUARDED_BY(mu) = 0;  // seq of the next decoded request
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
  // Reads left out of the re-arm for backpressure.
  bool reads_paused GUARDED_BY(mu) = false;

  // Sends queued frames until the queue is empty or the socket would block
  // (EPOLLOUT resumes it); false when the connection died mid-send.
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

  // Whether reads should be paused. Hysteresis: pause at the caps, resume
  // at half — a connection hovering at the limit does not thrash.
  bool WantPauseLocked(const AftServiceServerOptions& options) REQUIRES(mu) {
    const uint64_t depth = next_dispatch_seq - next_send_seq;
    if (reads_paused) {
      return out_bytes > options.max_write_buffer_bytes / 2 ||
             depth > options.max_pipeline_depth / 2;
    }
    return out_bytes > options.max_write_buffer_bytes || depth >= options.max_pipeline_depth;
  }

  // Applies WantPauseLocked, counting pauses and resumes; returns the pause.
  bool UpdatePauseLocked(const AftServiceServerOptions& options, AftServiceServerStats& stats)
      REQUIRES(mu) {
    const bool pause = WantPauseLocked(options);
    if (pause && !reads_paused) {
      stats.backpressure_pauses.fetch_add(1, std::memory_order_relaxed);
    } else if (!pause && reads_paused) {
      stats.backpressure_resumes.fetch_add(1, std::memory_order_relaxed);
    }
    reads_paused = pause;
    return pause;
  }

  // Re-arms the one-shot registration: EPOLLIN unless paused, EPOLLOUT while
  // bytes wait. Error and hangup are reported whatever the mask.
  void ArmLocked(int epoll_fd) REQUIRES(mu) {
    epoll_event ev{};
    ev.events = EPOLLONESHOT | (reads_paused ? 0u : EPOLLIN) | (outq.empty() ? 0u : EPOLLOUT);
    ev.data.u64 = id;
    (void)::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, socket.fd(), &ev);
  }
};

namespace {

// epoll data.u64 of the hand-off eventfd; connection ids start at 1.
constexpr uint64_t kWakeId = 0;

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

// Adds `n` to the hand-off eventfd's count: a semaphore, so each count wakes
// one pool thread.
void AddWakeCount(int wake_fd, uint64_t n) {
  // aftlint-allow(loop-blocking): wake_fd is a non-blocking eventfd; write never waits
  [[maybe_unused]] const ssize_t written = ::write(wake_fd, &n, sizeof(n));
}

void ArmWake(int epoll_fd, int wake_fd) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.u64 = kWakeId;
  (void)::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, wake_fd, &ev);
}

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
  auto fail = [this](Status status) {
    for (int* fd : {&epoll_fd_, &wake_fd_}) {
      if (*fd >= 0) {
        ::close(*fd);
        *fd = -1;
      }
    }
    listener_.Close();
    running_.store(false);
    return status;
  };
  auto listener = Listener::Bind(options_.port);
  if (!listener.ok()) {
    return fail(listener.status());
  }
  listener_ = std::move(listener).value();
  port_ = listener_.port();
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return fail(Status::Internal(std::string("epoll_create1: ") + std::strerror(errno)));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK | EFD_SEMAPHORE);
  if (wake_fd_ < 0) {
    return fail(Status::Internal(std::string("eventfd: ") + std::strerror(errno)));
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return fail(Status::Internal(std::string("epoll_ctl(wake): ") + std::strerror(errno)));
  }
  stopping_.store(false, std::memory_order_relaxed);
  for (size_t i = 0; i < kServerPoolThreads; ++i) {
    pool_.emplace_back([this] { PoolThreadMain(); });
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
  // Shut every connection down first, so blocked peers see EOF and no new
  // frame is read. Then wake the pool: each thread finishes the request it
  // serves and the queued ones (their responses go nowhere), and exits. The
  // wake count is left in place at shutdown, so it passes from thread to
  // thread. Only after the joins is it safe to drop the connections.
  {
    MutexLock lock(mu_);
    for (auto& [id, conn] : connections_) {
      conn->closed.store(true, std::memory_order_release);
      conn->socket.Shutdown();
    }
  }
  stopping_.store(true, std::memory_order_release);
  AddWakeCount(wake_fd_, 1);
  for (std::thread& thread : pool_) {
    thread.join();
  }
  pool_.clear();
  ::close(epoll_fd_);
  ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
  MutexLock lock(mu_);
  connections_.clear();
}

void AftServiceServer::AbandonConnections() {
  // shutdown(2) tears the stream under the pool — pending response sends
  // fail with EPIPE and reads see EOF, so the I/O step closes the connection
  // exactly as if the process had died mid-frame.
  MutexLock lock(mu_);
  for (auto& [id, conn] : connections_) {
    conn->socket.Shutdown();
  }
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
    AdoptConnection(std::move(accepted).value());
  }
}

void AftServiceServer::AdoptConnection(Socket socket) {
  const Status nonblocking = socket.SetNonBlocking(true);
  if (!nonblocking.ok()) {
    // A blocking socket would stall the pool thread holding its I/O step on
    // the first recv/send. Refuse it; the fd closes when `socket` goes out of
    // scope.
    AFT_LOG(Warn) << "aft server (" << node_.node_id()
                  << "): rejecting connection (cannot set non-blocking): "
                  << nonblocking.ToString();
    socket.Shutdown();
    return;
  }
  auto conn = std::make_shared<Connection>();
  conn->socket = std::move(socket);
  {
    MutexLock lock(mu_);
    conn->id = next_connection_id_++;
    connections_.emplace(conn->id, conn);
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->socket.fd(), &ev) != 0) {
    conn->closed.store(true, std::memory_order_release);
    conn->socket.Shutdown();
    MutexLock lock(mu_);
    connections_.erase(conn->id);
  }
}

std::shared_ptr<AftServiceServer::Connection> AftServiceServer::FindConnection(uint64_t id) {
  MutexLock lock(mu_);
  auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : it->second;
}

void AftServiceServer::PoolThreadMain() {
  std::vector<Request> requests = NextRequests();
  while (!requests.empty()) {
    // Frames 2..k run on other pool threads; this thread serves frame 1.
    HandOff(requests);
    requests = Serve(std::move(requests.front()));
    if (requests.empty()) {
      requests = NextRequests();
    }
  }
}

std::vector<AftServiceServer::Request> AftServiceServer::NextRequests() {
  std::vector<Request> requests;
  epoll_event event{};
  while (requests.empty()) {
    {
      MutexLock lock(queue_mu_);
      if (!queue_.empty()) {
        requests.push_back(std::move(queue_.front()));
        queue_.pop_front();
        break;
      }
    }
    if (stopping_.load(std::memory_order_acquire)) {
      break;
    }
    // One event per wake: the leader takes it, the other threads stay in
    // epoll_wait for the next one.
    const int n = ::epoll_wait(epoll_fd_, &event, 1, -1);
    if (n <= 0) {
      if (n == 0 || errno == EINTR) {
        continue;
      }
      AFT_LOG(Warn) << "aft server (" << node_.node_id()
                    << "): epoll_wait failed: " << std::strerror(errno);
      break;
    }
    if (event.data.u64 == kWakeId) {
      // Take one count (one queued request), then re-arm so the next count
      // wakes another thread. At shutdown the count stays for the others.
      if (!stopping_.load(std::memory_order_acquire)) {
        uint64_t count = 0;
        // aftlint-allow(loop-blocking): wake_fd_ is a non-blocking eventfd; read EAGAINs when empty
        [[maybe_unused]] const ssize_t got = ::read(wake_fd_, &count, sizeof(count));
      }
      ArmWake(epoll_fd_, wake_fd_);
      continue;
    }
    const std::shared_ptr<Connection> conn = FindConnection(event.data.u64);
    if (conn == nullptr) {
      continue;  // Closed since the event was reported.
    }
    {
      MutexLock lock(conn->mu);
      if (conn->io_owned) {
        continue;  // Stale hint; the holder re-arms.
      }
      conn->io_owned = true;
    }
    requests = RunIoStep(conn, event.events);
  }
  return requests;
}

std::vector<AftServiceServer::Request> AftServiceServer::RunIoStep(
    const std::shared_ptr<Connection>& conn, uint32_t events) {
  std::vector<Request> requests;
  while (!conn->closed.load(std::memory_order_acquire)) {
    bool ok = false;
    bool paused = false;
    {
      MutexLock lock(conn->mu);
      ok = conn->FlushLocked();
      paused = conn->UpdatePauseLocked(options_, stats_);
    }
    // epoll reports error/hangup whatever the armed mask, but a paused
    // connection is not read, so it would never see the error. The peer is
    // gone either way; close it now.
    if (paused && (events & (EPOLLERR | EPOLLHUP)) != 0) {
      ok = false;
    }
    bool parsed_all = false;  // `inbuf` holds no complete frame.
    if (ok && !paused) {
      bool stalled = false;
      ok = ReadAvailable(*conn) && ParseFrames(conn, &requests, &stalled);
      parsed_all = !stalled;
    }
    if (!ok) {
      CloseConnection(conn);
      break;
    }
    MutexLock lock(conn->mu);
    if (!conn->UpdatePauseLocked(options_, stats_) && !parsed_all && !conn->inbuf.empty()) {
      // Responses lifted the pause meanwhile. No EPOLLIN fires for the
      // frames already buffered; parse them now.
      continue;
    }
    conn->io_owned = false;
    conn->ArmLocked(epoll_fd_);
    break;
  }
  return requests;
}

bool AftServiceServer::ReadAvailable(Connection& conn) {
  char buf[64 * 1024];
  while (true) {
    auto got = conn.socket.RecvSome(buf, sizeof(buf));
    if (!got.ok()) {
      if (got.status().code() == StatusCode::kTimeout) {
        return true;  // Drained; wait for the next readiness event.
      }
      if (got.status().code() != StatusCode::kUnavailable) {
        AFT_LOG(Warn) << "aft server (" << node_.node_id()
                      << "): dropping connection: " << got.status().ToString();
      }
      return false;
    }
    conn.inbuf.append(buf, *got);
  }
}

bool AftServiceServer::ParseFrames(const std::shared_ptr<Connection>& conn,
                                   std::vector<Request>* requests, bool* stalled) {
  size_t consumed = 0;
  bool ok = true;
  requests->reserve(4);  // Most steps decode one frame; a burst grows past it.
  // aftlint: hot
  while (true) {
    Frame frame;
    auto n = DecodeFrameFromBuffer(std::string_view(conn->inbuf).substr(consumed), &frame);
    if (!n.ok()) {
      stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
      // aftlint-allow(obs-hot-log): teardown path — logs once, then the connection dies
      AFT_LOG(Warn) << "aft server (" << node_.node_id()
                    << "): dropping connection: " << n.status().ToString();
      ok = false;
      break;
    }
    if (*n == 0) {
      break;  // Need more bytes.
    }
    if (IsResponse(frame.type)) {
      stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
      ok = false;  // A client sending response frames is off-protocol.
      break;
    }
    uint64_t seq = 0;
    {
      MutexLock lock(conn->mu);
      // Pipeline full: pause under the lock and leave the frame buffered, so
      // the thread whose response drains the pipeline sees the pause and
      // takes the I/O step. No EPOLLIN fires for frames already in `inbuf`;
      // only that step gets them parsed.
      if (conn->UpdatePauseLocked(options_, stats_)) {
        *stalled = true;
        break;
      }
      seq = conn->next_dispatch_seq++;
    }
    consumed += *n;
    requests->push_back(Request{conn, seq, frame.type, std::move(frame.payload), frame.trace_id});
  }
  conn->inbuf.erase(0, consumed);
  return ok;
}

void AftServiceServer::HandOff(std::vector<Request>& requests) {
  if (requests.size() <= 1) {
    return;
  }
  {
    MutexLock lock(queue_mu_);
    for (size_t i = 1; i < requests.size(); ++i) {
      queue_.push_back(std::move(requests[i]));
    }
  }
  AddWakeCount(wake_fd_, requests.size() - 1);
  requests.resize(1);
}

std::vector<AftServiceServer::Request> AftServiceServer::Serve(Request request) {
  bool bad_frame = false;
  ArenaWriter response;
  HandleRequest(request.type, request.payload, request.trace_id, &bad_frame, response);
  if (bad_frame) {
    stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.requests_served.fetch_add(1, std::memory_order_relaxed);
  // Seal can only fail on a >64 MiB response, which no handler produces;
  // ship an empty-payload frame of the right type if it ever does, so the
  // sequencing chain never stalls waiting on a hole.
  auto sealed = SealFrame(ResponseType(request.type), std::move(response).TakeBuffer());
  return QueueResponse(request.conn, request.seq, sealed.ok() ? std::move(*sealed) : FrameBytes());
}

std::vector<AftServiceServer::Request> AftServiceServer::QueueResponse(
    const std::shared_ptr<Connection>& conn, uint64_t seq, FrameBytes frame) {
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
      return {};
    }
    // On an idle socket this thread sends the run itself. A non-empty queue
    // before the append means EPOLLOUT is armed or the I/O-step holder will
    // arm it, so the bytes ride with that flush.
    if (was_idle) {
      (void)conn->FlushLocked();
    }
    // The I/O step is needed only for bytes the socket would not take (it
    // arms EPOLLOUT; after a failed send its own flush fails and closes) and
    // to parse the frames of a paused connection this drain resumes. A
    // holder re-decides both when it releases the step.
    const bool partial = was_idle && !conn->outq.empty();
    const bool resume = conn->reads_paused && !conn->WantPauseLocked(options_);
    if (conn->io_owned || (!partial && !resume)) {
      return {};
    }
    conn->io_owned = true;
  }
  return RunIoStep(conn, 0);
}

void AftServiceServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  conn->closed.store(true, std::memory_order_release);
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->socket.fd(), nullptr);
  conn->socket.Shutdown();
  MutexLock lock(mu_);
  connections_.erase(conn->id);
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
