// Minimal Status / StatusOr error-handling vocabulary used across the
// library boundary (I/O, the algorithm registry, CLI plumbing). Hot paths
// never touch these; they exist so examples and tools can report failures
// without exceptions.
#ifndef DPC_CORE_STATUS_H_
#define DPC_CORE_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace dpc {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIoError,
  kDeadlineExceeded,
  kCancelled,
};

class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status IoError(std::string m) {
    return Status(StatusCode::kIoError, std::move(m));
  }
  static Status DeadlineExceeded(std::string m) {
    return Status(StatusCode::kDeadlineExceeded, std::move(m));
  }
  static Status Cancelled(std::string m) {
    return Status(StatusCode::kCancelled, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    const char* name = "UNKNOWN";
    switch (code_) {
      case StatusCode::kOk:
        name = "OK";
        break;
      case StatusCode::kInvalidArgument:
        name = "INVALID_ARGUMENT";
        break;
      case StatusCode::kNotFound:
        name = "NOT_FOUND";
        break;
      case StatusCode::kIoError:
        name = "IO_ERROR";
        break;
      case StatusCode::kDeadlineExceeded:
        name = "DEADLINE_EXCEEDED";
        break;
      case StatusCode::kCancelled:
        name = "CANCELLED";
        break;
    }
    return std::string(name) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value or an error. Callers must check ok() before value().
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}            // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {}    // NOLINT

  bool ok() const { return status_.ok() && value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() & { return *value_; }
  const T& value() const& { return *value_; }
  T&& value() && { return *std::move(value_); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace dpc

#endif  // DPC_CORE_STATUS_H_
