// Thin RAII wrappers over POSIX TCP sockets (loopback transport, §4).
//
// The net layer is the only part of the tree that touches real file
// descriptors; everything above it speaks `Status`. Deadlines are real-time
// (SO_RCVTIMEO / SO_SNDTIMEO): unlike the simulated storage latencies, wire
// I/O is genuinely asynchronous hardware, so the `Clock` abstraction does not
// apply here.
//
// Error mapping:
//   * connection refused / reset / EOF mid-read  -> kUnavailable
//   * deadline exceeded (EAGAIN under SO_*TIMEO) -> kTimeout
//   * anything else                              -> kInternal

#ifndef SRC_NET_SOCKET_H_
#define SRC_NET_SOCKET_H_

#include <sys/uio.h>

#include <cstdint>
#include <string>

#include "src/common/clock.h"
#include "src/common/status.h"

namespace aft {
namespace net {

// A host:port pair. The in-repo deployments only ever bind loopback; the
// host field exists so a RemoteAftClient config reads like a real one.
struct NetEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  std::string ToString() const { return host + ":" + std::to_string(port); }
};

// Owns one connected stream socket. Move-only. The fd is fixed for the
// lifetime of the object (no rebind), so concurrent Shutdown() from another
// thread — the clean-shutdown idiom used by the server — is race-free.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Sends exactly `len` bytes (MSG_NOSIGNAL: a dead peer surfaces as EPIPE,
  // never as a process-killing SIGPIPE).
  Status SendAll(const char* data, size_t len);
  Status SendAll(const std::string& data) { return SendAll(data.data(), data.size()); }

  // Receives exactly `len` bytes. EOF before `len` is kUnavailable: with a
  // length-prefixed framing a short read is always a torn frame or a closed
  // peer, never a legal message boundary.
  Status RecvAll(char* data, size_t len);

  // Single-shot partial I/O for the non-blocking server. Both return the
  // byte count actually moved (>= 1), or:
  //   * kTimeout      — the operation would block (EAGAIN); try again after
  //                     the next readiness event;
  //   * kUnavailable  — orderly EOF (recv) or a dead peer;
  //   * kInternal     — anything else.
  Result<size_t> RecvSome(char* data, size_t len);
  Result<size_t> SendSome(const char* data, size_t len);

  // Scatter-gather variants (sendmsg with MSG_NOSIGNAL): the zero-copy path
  // hands frame header + arena payload segments to the kernel as iovecs, so
  // a multi-segment frame costs one syscall and no coalescing copy.
  // SendSomeV is the single-shot non-blocking form (same error mapping as
  // SendSome); SendAllV loops until every byte of every iovec is out,
  // windowing past the kernel's per-call IOV_MAX. Both clamp `iovcnt`
  // internally; SendAllV does not modify the caller's array.
  Result<size_t> SendSomeV(const struct iovec* iov, size_t iovcnt);
  Status SendAllV(const struct iovec* iov, size_t iovcnt);

  // Switches the fd between blocking (the default) and non-blocking mode.
  Status SetNonBlocking(bool enabled);

  // Per-operation deadlines. Duration::zero() disables the deadline.
  Status SetRecvTimeout(Duration d);
  Status SetSendTimeout(Duration d);

  // Disables Nagle: every frame is a complete request or response, so
  // coalescing only adds latency.
  Status SetNoDelay();

  // Half-duplex teardown from any thread: wakes a peer (or our own handler
  // thread) blocked in recv() with an orderly EOF. Does NOT close the fd —
  // the owning thread still does that, so there is no close/use race.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
};

// Blocking connect with a real-time deadline (non-blocking connect + poll).
Result<Socket> TcpConnect(const NetEndpoint& endpoint, Duration timeout);

// A listening socket bound to loopback. `Accept` blocks until a connection
// arrives or `Shutdown` is called from another thread (shutdown-then-join is
// the server's clean exit path; see AftServiceServer::Stop).
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }
  Listener(Listener&& other) noexcept : fd_(other.fd_), port_(other.port_) { other.fd_ = -1; }
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port) with
  // SO_REUSEADDR so a restarted server can take over the address.
  static Result<Listener> Bind(uint16_t port);

  bool valid() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }

  // kUnavailable once Shutdown() has been called.
  Result<Socket> Accept();

  // Wakes a blocked Accept. Callable from any thread; idempotent.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace net
}  // namespace aft

#endif  // SRC_NET_SOCKET_H_
