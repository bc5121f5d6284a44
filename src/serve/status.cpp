#include "serve/status.h"

namespace yollo::serve {

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidInput:
      return "INVALID_INPUT";
    case StatusCode::kOverloaded:
      return "OVERLOADED";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kInternalError:
      return "INTERNAL_ERROR";
    case StatusCode::kCancelled:
      return "CANCELLED";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
  }
  return "UNKNOWN";
}

std::string Status::to_string() const {
  std::string out = status_code_name(code);
  if (!message.empty()) {
    out += ": ";
    out += message;
  }
  return out;
}

}  // namespace yollo::serve
