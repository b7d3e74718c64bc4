#include "src/obs/metrics_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/logging.h"
#include "src/obs/health.h"

namespace aft {
namespace obs {
namespace {

void SendAllBestEffort(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return;
    }
    sent += static_cast<size_t>(n);
  }
}

// EVERY response — success or error — goes through here, so Content-Length
// and Connection: close are consistent on all paths (clients like bash's
// /dev/tcp scrape loop and aft_top read until EOF and rely on the header
// pair; ObsHttpTest.ErrorResponsesCarryFramingHeaders pins this).
// `extra_headers` carries per-response additions, e.g. 405's "Allow: GET".
std::string HttpResponse(int code, const char* reason, const char* content_type,
                         const std::string& body, const std::string& extra_headers = {}) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " + reason + "\r\n";
  out += "Content-Type: ";
  out += content_type;
  out += "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += extra_headers;
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

Status MetricsHttpServer::Start(uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal("metrics http: socket: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status st =
        Status::Unavailable("metrics http: bind: " + std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 16) < 0) {
    const Status st =
        Status::Internal("metrics http: listen: " + std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

void MetricsHttpServer::Stop() {
  if (listen_fd_ < 0) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  // Shutdown unblocks the accept(2) in Loop().
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void MetricsHttpServer::Loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (!stopping_.load(std::memory_order_acquire)) {
        AFT_LOG(Warn) << "metrics http: accept: " << std::strerror(errno);
      }
      return;
    }
    ServeHttpRequest(fd);
    ::close(fd);
  }
}

void MetricsHttpServer::ServeHttpRequest(int fd) {
  // Read until end-of-headers (or a sane cap); we only care about the request
  // line of a GET.
  std::string request;
  char buf[1024];
  while (request.find("\r\n\r\n") == std::string::npos && request.size() < 8192) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return;
    }
    request.append(buf, static_cast<size_t>(n));
  }
  if (request.find("\r\n\r\n") == std::string::npos) {
    // Headers never terminated within the cap: refuse rather than parse a
    // truncated request line as if it were complete.
    SendAllBestEffort(fd, HttpResponse(400, "Bad Request", "text/plain",
                                       "request headers too large or malformed\n"));
    return;
  }

  const size_t line_end = request.find("\r\n");
  const std::string line = request.substr(0, line_end);
  if (line.rfind("GET ", 0) != 0) {
    SendAllBestEffort(fd, HttpResponse(405, "Method Not Allowed", "text/plain", "GET only\n",
                                       "Allow: GET\r\n"));
    return;
  }
  const size_t path_start = 4;
  const size_t path_end = line.find(' ', path_start);
  if (path_end == std::string::npos) {
    SendAllBestEffort(fd,
                      HttpResponse(400, "Bad Request", "text/plain", "malformed request line\n"));
    return;
  }
  const std::string path = line.substr(path_start, path_end - path_start);

  if (path == "/metrics" || path == "/") {
    // Late-created contention sites bridge into the registry at scrape time.
    SyncContentionMetrics(registry_);
    SendAllBestEffort(fd, HttpResponse(200, "OK", "text/plain; version=0.0.4",
                                       registry_.Exposition()));
  } else if (path == "/traces") {
    SendAllBestEffort(fd, HttpResponse(200, "OK", "application/json", tracer_.DumpJson()));
  } else if (path == "/healthz") {
    // Liveness: this thread answered, the process serves. Nothing deeper —
    // that is /readyz's job.
    SendAllBestEffort(fd, HttpResponse(200, "OK", "text/plain", "ok\n"));
  } else if (path == "/readyz") {
    const ReadyReport report = CheckReady();
    SendAllBestEffort(fd, report.ready
                              ? HttpResponse(200, "OK", "text/plain", report.body)
                              : HttpResponse(503, "Service Unavailable", "text/plain",
                                             report.body));
  } else if (path == "/varz") {
    SendAllBestEffort(fd, HttpResponse(200, "OK", "text/plain", RenderVarz()));
  } else if (path == "/debug/contention") {
    SendAllBestEffort(fd, HttpResponse(200, "OK", "text/plain", RenderContention()));
  } else {
    SendAllBestEffort(
        fd, HttpResponse(404, "Not Found", "text/plain",
                         "try /metrics /traces /healthz /readyz /varz /debug/contention\n"));
  }
}

}  // namespace obs
}  // namespace aft
