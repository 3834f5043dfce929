// Status and Result<T>: exception-free error handling for the cio libraries.
//
// Every fallible operation returns a Status or a Result<T>. Codes are chosen
// to match the failure classes that matter for confidential I/O interfaces:
// a hostile host produces kHostViolation / kTampered, a misbehaving guest
// produces kInvalidArgument / kOutOfRange, and resource exhaustion is
// kResourceExhausted. Per the paper's "stateless interface" principle,
// callers of the hardened interfaces are expected to treat most errors as
// fatal rather than recoverable.

#ifndef SRC_BASE_STATUS_H_
#define SRC_BASE_STATUS_H_

#include <cassert>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace ciobase {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    // caller passed a bad value
  kOutOfRange,         // index/offset/length outside the permitted window
  kResourceExhausted,  // ring full, pool empty, arena exhausted
  kFailedPrecondition, // object not in the required state
  kNotFound,
  kAlreadyExists,
  kUnavailable,        // transient: nothing to poll, retry later
  kTimedOut,           // watchdog expired: the host stopped making progress
  kLinkReset,          // the link was reset and reattached; in-flight frames
                       // on the old ring are gone and must be re-sent
  kTampered,           // cryptographic or structural integrity check failed
  kUnauthenticated,    // admission refused: missing/forged/stale attestation
  kHostViolation,      // the untrusted host broke the interface contract
  kPermissionDenied,   // trust-domain policy forbids the access
  kUnimplemented,
  kInternal,
};

// Human-readable name for a code, e.g. "HOST_VIOLATION".
std::string_view StatusCodeName(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "HOST_VIOLATION: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
Status InvalidArgument(std::string message);
Status OutOfRange(std::string message);
Status ResourceExhausted(std::string message);
Status FailedPrecondition(std::string message);
Status NotFound(std::string message);
Status AlreadyExists(std::string message);
Status Unavailable(std::string message);
Status TimedOut(std::string message);
Status LinkReset(std::string message);
Status Tampered(std::string message);
Status Unauthenticated(std::string message);
Status HostViolation(std::string message);
Status PermissionDenied(std::string message);
Status Unimplemented(std::string message);
Status Internal(std::string message);

// Result<T>: either a value or a non-OK Status.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : value_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(value_).ok() && "Result from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(value_); }

  const T& value() const {
    assert(ok());
    return std::get<T>(value_);
  }
  T& value() {
    assert(ok());
    return std::get<T>(value_);
  }
  T take() {
    assert(ok());
    return std::move(std::get<T>(value_));
  }

  Status status() const {
    if (ok()) {
      return OkStatus();
    }
    return std::get<Status>(value_);
  }

  const T& operator*() const { return value(); }
  T& operator*() { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> value_;
};

// Propagates a non-OK status from an expression that yields Status.
#define CIO_RETURN_IF_ERROR(expr)              \
  do {                                         \
    ::ciobase::Status cio_status_ = (expr);    \
    if (!cio_status_.ok()) {                   \
      return cio_status_;                      \
    }                                          \
  } while (0)

// Assigns the value of a Result expression or propagates its status. The
// temporary is named after the line, so uses on different lines of one
// scope do not collide; the two-level paste expands __LINE__ first.
#define CIO_CONCAT_INNER_(a, b) a##b
#define CIO_CONCAT_(a, b) CIO_CONCAT_INNER_(a, b)
#define CIO_ASSIGN_OR_RETURN(lhs, expr) \
  CIO_ASSIGN_OR_RETURN_IMPL_(CIO_CONCAT_(cio_result_, __LINE__), lhs, expr)
#define CIO_ASSIGN_OR_RETURN_IMPL_(result, lhs, expr) \
  auto result = (expr);                               \
  if (!result.ok()) {                                 \
    return result.status();                           \
  }                                                   \
  lhs = result.take()

}  // namespace ciobase

#endif  // SRC_BASE_STATUS_H_
