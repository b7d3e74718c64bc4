// Lightweight status / result types used throughout the AFT codebase.
//
// AFT runs on the critical path of every storage IO, so error handling uses
// explicit status codes rather than exceptions (see C++ Core Guidelines E.28:
// codebase-wide policy). `Status` carries a code and a human-readable message;
// `Result<T>` is a status-or-value sum type.

#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace aft {

// Error categories. Modelled loosely on absl::StatusCode, restricted to what
// the shim and its simulated substrates actually produce.
enum class StatusCode {
  kOk = 0,
  // The requested key / transaction / object does not exist.
  kNotFound,
  // A transactional operation lost a conflict (e.g. DynamoDB transaction-mode
  // lock acquisition failure) and was aborted; the caller may retry.
  kAborted,
  // The operation was rejected because an argument was malformed.
  kInvalidArgument,
  // The component has been shut down or the target node has failed.
  kUnavailable,
  // An operation could not complete in time.
  kTimeout,
  // A precondition was violated (e.g. commit on an unknown transaction).
  kFailedPrecondition,
  // Capacity or quota exceeded (e.g. FaaS concurrency limit with no queueing).
  kResourceExhausted,
  // Catch-all for internal invariant violations.
  kInternal,
  // A conditional create found its key already present (S3 If-None-Match,
  // DynamoDB attribute_not_exists, Redis SET NX).
  kAlreadyExists,
};

// Returns a short stable name for a status code ("OK", "NOT_FOUND", ...).
std::string_view StatusCodeName(StatusCode code);

// A status is a code plus an optional diagnostic message. Statuses are cheap
// to copy in the OK case (empty message).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string msg) { return Status(StatusCode::kNotFound, std::move(msg)); }
  static Status Aborted(std::string msg) { return Status(StatusCode::kAborted, std::move(msg)); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Timeout(std::string msg) { return Status(StatusCode::kTimeout, std::move(msg)); }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) { return Status(StatusCode::kInternal, std::move(msg)); }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }

  // "OK" or "NOT_FOUND: no such key".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  StatusCode code_;
  std::string message_;
};

// Status-or-value. The value is engaged iff the status is OK.
template <typename T>
class Result {
 public:
  // Implicit conversions keep call sites terse: `return Status::NotFound(...)`
  // or `return value;`.
  Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!status_.ok() && "OK Result must carry a value");
  }
  Result(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::Ok()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  // Returns the value, or `fallback` when the status is not OK.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  Status status_;
  std::optional<T> value_;
};

// Propagates a non-OK status from an expression producing `Status`.
#define AFT_RETURN_IF_ERROR(expr)        \
  do {                                   \
    ::aft::Status _aft_status = (expr);  \
    if (!_aft_status.ok()) {             \
      return _aft_status;                \
    }                                    \
  } while (0)

// Assigns the value of a `Result<T>` expression to `lhs`, or propagates the
// error. `lhs` may be a declaration: AFT_ASSIGN_OR_RETURN(auto v, Lookup(k));
#define AFT_ASSIGN_OR_RETURN(lhs, expr)      \
  AFT_ASSIGN_OR_RETURN_IMPL_(                \
      AFT_STATUS_CONCAT_(_aft_r, __LINE__), lhs, expr)

#define AFT_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                               \
  if (!tmp.ok()) {                                 \
    return tmp.status();                           \
  }                                                \
  lhs = std::move(tmp).value()

#define AFT_STATUS_CONCAT_(a, b) AFT_STATUS_CONCAT_IMPL_(a, b)
#define AFT_STATUS_CONCAT_IMPL_(a, b) a##b

}  // namespace aft

#endif  // SRC_COMMON_STATUS_H_
