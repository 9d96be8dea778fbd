// Status and Result<T>: exception-free error handling for the nse library.
//
// Public APIs that can fail return Status (no payload) or Result<T> (payload
// or error), mirroring the conventions of large C++ database codebases.

#ifndef NSE_COMMON_STATUS_H_
#define NSE_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace nse {

/// Error category carried by a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< Caller supplied a malformed value.
  kNotFound,          ///< A named entity (item, transaction, ...) is unknown.
  kFailedPrecondition,///< Operation is valid but the object state is not.
  kOutOfRange,        ///< Index or position outside the valid range.
  kUnimplemented,     ///< Feature intentionally not supported.
  kDeadlineExceeded,  ///< A wall-clock or tick budget ran out first.
  kInternal,          ///< Invariant violation inside the library.
};

/// Human-readable name of a StatusCode (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// A success-or-error value. Cheap to copy on the success path.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Returns the OK status.
  static Status Ok() { return Status(); }
  /// Returns an InvalidArgument status with the given message.
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  /// Returns a NotFound status with the given message.
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  /// Returns a FailedPrecondition status with the given message.
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  /// Returns an OutOfRange status with the given message.
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  /// Returns an Unimplemented status with the given message.
  static Status Unimplemented(std::string message) {
    return Status(StatusCode::kUnimplemented, std::move(message));
  }
  /// Returns a DeadlineExceeded status with the given message.
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  /// Returns an Internal status with the given message.
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }

  /// True iff this status represents success.
  bool ok() const { return code_ == StatusCode::kOk; }
  /// The status code.
  StatusCode code() const { return code_; }
  /// The error message; empty for OK.
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// A value of type T or an error Status. Dereference only when ok().
template <typename T>
class Result {
 public:
  /// Constructs a successful result holding `value`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs a failed result from a non-OK status.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  /// True iff a value is present.
  bool ok() const { return status_.ok(); }

  /// The status (OK when a value is present).
  const Status& status() const { return status_; }

  /// Accessors; valid only when ok().
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

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace nse

/// Propagates a non-OK Status from the evaluated expression.
#define NSE_RETURN_IF_ERROR(expr)                \
  do {                                           \
    ::nse::Status nse_status_tmp_ = (expr);      \
    if (!nse_status_tmp_.ok()) return nse_status_tmp_; \
  } while (false)

/// Assigns the value of a Result expression to `lhs` or propagates its error.
#define NSE_ASSIGN_OR_RETURN(lhs, expr)                     \
  NSE_ASSIGN_OR_RETURN_IMPL_(                               \
      NSE_STATUS_CONCAT_(nse_result_, __LINE__), lhs, expr)

#define NSE_ASSIGN_OR_RETURN_IMPL_(var, lhs, expr) \
  auto var = (expr);                               \
  if (!var.ok()) return var.status();              \
  lhs = std::move(var).value()

#define NSE_STATUS_CONCAT_INNER_(a, b) a##b
#define NSE_STATUS_CONCAT_(a, b) NSE_STATUS_CONCAT_INNER_(a, b)

#endif  // NSE_COMMON_STATUS_H_
