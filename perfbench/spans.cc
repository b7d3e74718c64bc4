#include "perfbench/spans.h"

#include <cinttypes>

namespace perfbench {

SpanLog::Scope::Scope(SpanLog& log, const char* name) : log_(log.enabled_ ? &log : nullptr) {
  if (log_ == nullptr) {
    return;
  }
  Span span;
  span.request = log.request_;
  span.id = ++log.next_id_;
  span.parent = log.stack_.empty() ? 0 : log.stack_.back();
  span.name = name;
  span.start_ns = SteadyNowNs();
  index_ = log.spans_.size();
  log.spans_.push_back(span);
  log.stack_.push_back(span.id);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) {
    return;
  }
  log_->spans_[index_].end_ns = SteadyNowNs();
  log_->stack_.pop_back();
}

void SpanLog::WriteTsv(std::FILE* out, const std::vector<Span>& spans) {
  for (const Span& s : spans) {
    std::fprintf(out, "%" PRIu64 "\t%u\t%u\t%s\t%" PRId64 "\t%" PRId64 "\n", s.request, s.id,
                 s.parent, s.name, s.start_ns, s.end_ns);
  }
}

}  // namespace perfbench
