// Typed error taxonomy for the serving layer.
//
// Every request submitted to yollo::serve terminates in exactly one Status
// code — there is no exception path out of the service. The taxonomy is the
// contract clients program against (DESIGN.md §8):
//
//   kOk               answered by the YOLLO model
//   kInvalidInput     rejected at admission: malformed image or query
//   kOverloaded       rejected at admission: queue full or service stopped
//   kDeadlineExceeded the request's deadline expired before an answer
//   kInternalError    the model tier failed after its retries, or its
//                     circuit breaker is open (fail fast)
//   kCancelled        the request was cancelled mid-flight (client cancel
//                     token or watchdog kick) before an answer
//   kResourceExhausted rejected under memory pressure: the worker's storage
//                     pool budget refused every forward attempt
//                     (DESIGN.md §13)
#pragma once

#include <string>
#include <utility>

namespace yollo::serve {

enum class StatusCode {
  kOk = 0,
  kInvalidInput,
  kOverloaded,
  kDeadlineExceeded,
  kInternalError,
  kCancelled,
  kResourceExhausted,
};

const char* status_code_name(StatusCode code);

struct Status {
  StatusCode code = StatusCode::kOk;
  std::string message;

  // A request is answered (carries a usable box) only when it is kOk;
  // every other code is a typed failure. answered() is kept as a synonym
  // for its last reader, bench_suite.
  bool ok() const { return code == StatusCode::kOk; }
  bool answered() const { return ok(); }

  static Status ok_status() { return Status{}; }
  static Status invalid_input(std::string message) {
    return Status{StatusCode::kInvalidInput, std::move(message)};
  }
  static Status overloaded(std::string message) {
    return Status{StatusCode::kOverloaded, std::move(message)};
  }
  static Status deadline_exceeded(std::string message) {
    return Status{StatusCode::kDeadlineExceeded, std::move(message)};
  }
  static Status internal(std::string message) {
    return Status{StatusCode::kInternalError, std::move(message)};
  }
  static Status cancelled(std::string message) {
    return Status{StatusCode::kCancelled, std::move(message)};
  }
  static Status resource_exhausted(std::string message) {
    return Status{StatusCode::kResourceExhausted, std::move(message)};
  }

  std::string to_string() const;
};

// A value or a typed error, for the exception-free inference path.
template <typename T>
class Result {
 public:
  Result(Status status) : status_(std::move(status)) {}  // NOLINT(google-explicit-constructor)
  Result(T value) : value_(std::move(value)) {}          // NOLINT(google-explicit-constructor)

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  const T& value() const { return value_; }
  T& value() { return value_; }

 private:
  Status status_;
  T value_{};
};

}  // namespace yollo::serve
