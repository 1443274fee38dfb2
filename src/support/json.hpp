// Minimal JSON support: a string escaper for the writers (Chrome traces,
// .stats.json) and a small recursive-descent parser used by the tests to
// validate that emitted telemetry is well-formed. Not a general-purpose
// library: numbers parse to double, no \u surrogate pairing, input must be
// a single value with only trailing whitespace.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ara::json {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not added).
[[nodiscard]] std::string escape(std::string_view s);

/// escape(s), appended to `out`.
void append_escaped(std::string& out, std::string_view s);

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // insertion order kept

  [[nodiscard]] bool is_null() const { return kind == Kind::Null; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::Bool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind == Kind::Object; }

  /// Object member lookup (first match); nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
  [[nodiscard]] Value* find(std::string_view key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }
};

/// Parses one JSON value. Returns nullopt (and sets `error` with an offset-
/// tagged message) on malformed input.
[[nodiscard]] std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

}  // namespace ara::json
