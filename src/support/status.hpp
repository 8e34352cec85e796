// Lightweight error handling: Status for operations that can fail without a
// value, Result<T> for operations producing a value. The framework reserves
// exceptions for programmer errors (assert-like invariant violations); all
// expected failures (unparseable program, HLS resource infeasibility,
// interpreter budget exhaustion) travel through Status/Result.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace autophase {

class Status {
 public:
  /// Success.
  Status() = default;

  static Status ok() { return Status(); }
  static Status error(std::string message) { return Status(std::move(message)); }

  [[nodiscard]] bool is_ok() const noexcept { return !message_.has_value(); }
  explicit operator bool() const noexcept { return is_ok(); }

  /// Error message; empty string when ok.
  [[nodiscard]] const std::string& message() const noexcept {
    static const std::string empty;
    return message_ ? *message_ : empty;
  }

 private:
  explicit Status(std::string message) : message_(std::move(message)) {}
  std::optional<std::string> message_;
};

template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.is_ok() && "Result constructed from ok Status without value");
  }

  [[nodiscard]] bool is_ok() const noexcept { return status_.is_ok(); }
  explicit operator bool() const noexcept { return is_ok(); }

  [[nodiscard]] const Status& status() const noexcept { return status_; }
  [[nodiscard]] const std::string& message() const noexcept { return status_.message(); }

  [[nodiscard]] T& value() & {
    assert(is_ok());
    return *value_;
  }
  [[nodiscard]] const T& value() const& {
    assert(is_ok());
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    assert(is_ok());
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace autophase
