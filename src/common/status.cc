#include "src/common/status.h"

namespace aft {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAborted:
      return "ABORTED";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kTimeout:
      return "TIMEOUT";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace aft
