// In-memory spans the benchmark records around each call it makes into a
// layer of the shim: the request, FaasPlatform::InvokeChain, each function
// body, and every client call. Spans never come from inside the program;
// node, storage, WAL, net and gossip numbers come from the counters those
// layers export.
//
// One SpanLog belongs to one client thread (FaaS function bodies run on the
// thread that called InvokeChain), so recording takes no lock. A disabled
// log records nothing and its scopes cost one branch.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

inline int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t request = 0;  // Shared by every span of one request.
  uint32_t id = 0;       // 1-based within the request.
  uint32_t parent = 0;   // 0 for the request root.
  const char* name = "";  // Static string.
  int64_t start_ns = 0;  // steady_clock.
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  // Starts a new request; spans opened until the next call belong to it.
  void BeginRequest(uint64_t request_id) {
    request_ = request_id;
    next_id_ = 0;
    stack_.clear();
  }

  // Opens a span as a child of the innermost open one and closes it when the
  // scope ends.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;  // nullptr when the log is disabled.
    size_t index_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }

  // One line per span: request, id, parent, name, start_ns, end_ns.
  static void WriteTsv(std::FILE* out, const std::vector<Span>& spans);

 private:
  bool enabled_;
  uint64_t request_ = 0;
  uint32_t next_id_ = 0;
  std::vector<uint32_t> stack_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
