// Minimal JSON value: builder, serializer and the repo's one reader
// (parse(), in json.cpp). Deliberately tiny: objects preserve insertion
// order, numbers print with enough precision to round-trip (NaN and
// infinities, which JSON cannot express, print as null), strings are
// escaped per RFC 8259. Writing is header-only and std-only, so std-only
// tools can serialize without linking cryptodrop_common.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace cryptodrop {

/// A single JSON value: null, boolean, number, string, object or array.
class Json {
 public:
  /// Default-constructs null.
  Json() : kind_(Kind::null) {}
  /// Null from the nullptr literal.
  Json(std::nullptr_t) : kind_(Kind::null) {}  // NOLINT
  /// Boolean.
  Json(bool b) : kind_(Kind::boolean), bool_(b) {}  // NOLINT
  /// Number.
  Json(double d) : kind_(Kind::number), number_(d) {}  // NOLINT
  /// Number from int (always exact in a double).
  Json(int i) : kind_(Kind::number), number_(i) {}  // NOLINT
  /// Number from long; values beyond 2^53 round.
  Json(long i) : kind_(Kind::number), number_(static_cast<double>(i)) {}  // NOLINT
  /// Number from long long; values beyond 2^53 round.
  Json(long long i) : kind_(Kind::number), number_(static_cast<double>(i)) {}  // NOLINT
  /// Number from unsigned long; values beyond 2^53 round.
  Json(unsigned long u) : kind_(Kind::number), number_(static_cast<double>(u)) {}  // NOLINT
  /// Number from unsigned long long; values beyond 2^53 round.
  Json(unsigned long long u) : kind_(Kind::number), number_(static_cast<double>(u)) {}  // NOLINT
  /// Number from unsigned (always exact in a double).
  Json(unsigned u) : kind_(Kind::number), number_(u) {}  // NOLINT
  /// String from a C literal.
  Json(const char* s) : kind_(Kind::string), string_(s) {}  // NOLINT
  /// String, taking ownership.
  Json(std::string s) : kind_(Kind::string), string_(std::move(s)) {}  // NOLINT
  /// String copied from a view.
  Json(std::string_view s) : kind_(Kind::string), string_(s) {}  // NOLINT

  /// An empty object, ready for set().
  static Json object() {
    Json j;
    j.kind_ = Kind::object;
    return j;
  }
  /// An empty array, ready for push().
  static Json array() {
    Json j;
    j.kind_ = Kind::array;
    return j;
  }

  /// Deepest array/object nesting parse() accepts. The deepest document
  /// the repo writes (a `verdicts` response) nests 7 levels; a bound
  /// keeps hostile input from exhausting the stack of the recursive
  /// reader.
  static constexpr int kMaxParseDepth = 64;

  /// Reads exactly one JSON document; trailing non-whitespace is an
  /// error. Failures are invalid_argument with "<what> at offset N".
  /// Duplicate object keys are kept in document order (find() returns
  /// the first); \u escapes decode as single BMP code points.
  static Result<Json> parse(std::string_view text);

  /// Object field (insertion-ordered; duplicate keys keep both and
  /// find() returns the first). Returns *this for chaining.
  Json& set(std::string key, Json value) {
    fields_.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  /// Array element. Returns *this for chaining.
  Json& push(Json value) {
    elements_.push_back(std::move(value));
    return *this;
  }

  /// True when this value is null.
  [[nodiscard]] bool is_null() const { return kind_ == Kind::null; }
  /// True when this value is a boolean.
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::boolean; }
  /// True when this value is an object.
  [[nodiscard]] bool is_object() const { return kind_ == Kind::object; }
  /// True when this value is an array.
  [[nodiscard]] bool is_array() const { return kind_ == Kind::array; }
  /// True when this value is a number.
  [[nodiscard]] bool is_number() const { return kind_ == Kind::number; }
  /// True when this value is a string.
  [[nodiscard]] bool is_string() const { return kind_ == Kind::string; }
  /// The numeric value (0.0 when this is not a number).
  [[nodiscard]] double as_number() const { return number_; }
  /// The boolean value (false when this is not a boolean).
  [[nodiscard]] bool as_bool() const { return bool_; }
  /// The string value (empty when this is not a string).
  [[nodiscard]] const std::string& as_string() const { return string_; }
  /// Array elements (empty when this is not an array).
  [[nodiscard]] const std::vector<Json>& items() const { return elements_; }
  /// Object members in document order (empty when this is not an object).
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& fields() const {
    return fields_;
  }

  /// Object field lookup (first match when a key repeats); nullptr when
  /// absent or this is not an object.
  [[nodiscard]] const Json* find(std::string_view key) const {
    if (kind_ != Kind::object) return nullptr;
    for (const auto& [k, v] : fields_) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  /// String member, or `fallback` when absent or not a string.
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const {
    const Json* v = find(key);
    return v != nullptr && v->is_string() ? v->string_ : std::string(fallback);
  }
  /// Numeric member, or `fallback` when absent or not a number.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const {
    const Json* v = find(key);
    return v != nullptr && v->is_number() ? v->number_ : fallback;
  }
  /// `d` as a T when it is a whole number within T's range — the check
  /// that makes the float-to-integer conversion defined. nullopt for
  /// fractions, NaN, infinities and out-of-range values.
  template <typename T>
  [[nodiscard]] static std::optional<T> integral(double d) {
    // min() is 0 or -2^k and 2*(max()/2+1) is 2^digits, one past max():
    // both are exact doubles, so the bounds do not round.
    constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
    constexpr double hi = 2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
    if (!(d >= lo && d < hi) || d != std::trunc(d)) return std::nullopt;
    return static_cast<T>(d);
  }
  /// Integer member: `fallback` when absent or not a number (as
  /// number_or), the value when it is a whole number in T's range, and
  /// nullopt when it is a number T cannot hold (fractional, non-finite
  /// or out of range) — callers turn that into an error.
  template <typename T>
  [[nodiscard]] std::optional<T> integer_or(std::string_view key, T fallback) const {
    const Json* v = find(key);
    if (v == nullptr || !v->is_number()) return fallback;
    return integral<T>(v->number_);
  }
  /// Boolean member, or `fallback` when absent or not a boolean.
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const {
    const Json* v = find(key);
    return v != nullptr && v->is_bool() ? v->bool_ : fallback;
  }
  /// Element count for arrays, field count for objects.
  [[nodiscard]] std::size_t size() const {
    return kind_ == Kind::array ? elements_.size() : fields_.size();
  }

  /// Compact serialization.
  [[nodiscard]] std::string to_string() const {
    std::string out;
    write(out, /*indent=*/-1, /*depth=*/0);
    return out;
  }

  /// Pretty serialization with 2-space indentation.
  [[nodiscard]] std::string to_pretty_string() const {
    std::string out;
    write(out, /*indent=*/2, /*depth=*/0);
    out.push_back('\n');
    return out;
  }

 private:
  enum class Kind : std::uint8_t { null, boolean, number, string, object, array };

  static void escape_into(std::string& out, std::string_view s) {
    out.push_back('"');
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out.push_back(c);
          }
      }
    }
    out.push_back('"');
  }

  void newline(std::string& out, int indent, int depth) const {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * depth), ' ');
  }

  void write(std::string& out, int indent, int depth) const {
    switch (kind_) {
      case Kind::null:
        out += "null";
        break;
      case Kind::boolean:
        out += bool_ ? "true" : "false";
        break;
      case Kind::number: {
        // JSON has no NaN or infinity; they print as null.
        if (!std::isfinite(number_)) {
          out += "null";
          break;
        }
        char buf[32];
        // Whole numbers in long long's range print without a fraction;
        // others with %.10g.
        if (const std::optional<long long> whole = integral<long long>(number_)) {
          std::snprintf(buf, sizeof(buf), "%lld", *whole);
        } else {
          std::snprintf(buf, sizeof(buf), "%.10g", number_);
        }
        out += buf;
        break;
      }
      case Kind::string:
        escape_into(out, string_);
        break;
      case Kind::object: {
        out.push_back('{');
        bool first = true;
        for (const auto& [key, value] : fields_) {
          if (!first) out.push_back(',');
          first = false;
          newline(out, indent, depth + 1);
          escape_into(out, key);
          out += indent < 0 ? ":" : ": ";
          value.write(out, indent, depth + 1);
        }
        if (!fields_.empty()) newline(out, indent, depth);
        out.push_back('}');
        break;
      }
      case Kind::array: {
        out.push_back('[');
        bool first = true;
        for (const Json& value : elements_) {
          if (!first) out.push_back(',');
          first = false;
          newline(out, indent, depth + 1);
          value.write(out, indent, depth + 1);
        }
        if (!elements_.empty()) newline(out, indent, depth);
        out.push_back(']');
        break;
      }
    }
  }

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<std::pair<std::string, Json>> fields_;
  std::vector<Json> elements_;
};

}  // namespace cryptodrop
