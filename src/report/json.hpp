#pragma once

// mebl::report JSON value — the carrier for every machine-readable artifact
// the reporting layer emits (run reports, bench artifacts, threshold files).
//
// Deliberately small but complete (objects, arrays, strings with escapes,
// 64-bit integers, doubles, bools, null) and built for *determinism*:
//
//  * objects are std::map, so members always dump name-sorted;
//  * integers and doubles are distinct kinds — counters never lose
//    precision to a double, and a value round-trips with its kind;
//  * doubles print with the shortest decimal form that parses back to the
//    identical bits (and always carry a '.' or exponent so they re-parse as
//    doubles), making dump(parse(dump(x))) byte-identical to dump(x).
//
// This is what lets `mebl_report diff` and the determinism tests compare
// reports as bytes, not just as floats-within-epsilon.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mebl::report {

class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool value) : kind_(Kind::kBool), bool_(value) {}  // NOLINT
  Json(int value) : kind_(Kind::kInt), int_(value) {}     // NOLINT
  Json(std::int64_t value) : kind_(Kind::kInt), int_(value) {}  // NOLINT
  Json(double value) : kind_(Kind::kDouble), double_(value) {}  // NOLINT
  Json(const char* value) : kind_(Kind::kString), string_(value) {}  // NOLINT
  Json(std::string value)  // NOLINT(google-explicit-constructor)
      : kind_(Kind::kString), string_(std::move(value)) {}
  Json(Array value)  // NOLINT(google-explicit-constructor)
      : kind_(Kind::kArray), array_(std::move(value)) {}
  Json(Object value)  // NOLINT(google-explicit-constructor)
      : kind_(Kind::kObject), object_(std::move(value)) {}

  [[nodiscard]] static Json array() { return Json(Array{}); }
  [[nodiscard]] static Json object() { return Json(Object{}); }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] std::int64_t as_int() const noexcept {
    return kind_ == Kind::kDouble ? static_cast<std::int64_t>(double_) : int_;
  }
  [[nodiscard]] double as_double() const noexcept {
    return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
  }
  [[nodiscard]] const std::string& as_string() const noexcept {
    return string_;
  }
  [[nodiscard]] const Array& items() const noexcept { return array_; }
  [[nodiscard]] Array& items() noexcept { return array_; }
  [[nodiscard]] const Object& members() const noexcept { return object_; }
  [[nodiscard]] Object& members() noexcept { return object_; }

  /// Member lookup on an object; nullptr when absent or not an object.
  [[nodiscard]] const Json* get(std::string_view key) const;

  /// Object member access, creating the member (and coercing *this to an
  /// object) as std::map does.
  Json& operator[](const std::string& key);

  /// Append to an array (coercing a null value to an array first).
  void push_back(Json value);

  friend bool operator==(const Json& a, const Json& b);
  friend bool operator!=(const Json& a, const Json& b) { return !(a == b); }

  /// Pretty-print with 2-space indentation and deterministic member order /
  /// number formatting; `indent` is the starting depth.
  void dump(std::ostream& out, int indent = 0) const;
  [[nodiscard]] std::string dump() const;

  /// Parse a complete JSON document; std::nullopt on any syntax error,
  /// trailing garbage, or arrays/objects nested more than 256 deep.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Shortest decimal form of `v` that strtod parses back to identical bits,
/// always containing '.' or an exponent (so it re-parses as a double).
[[nodiscard]] std::string format_double(double v);

}  // namespace mebl::report
