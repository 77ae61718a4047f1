// Minimal JSON support for the observability layer and histogram
// serialization: an append-style writer and a small recursive-descent
// parser — enough for the "parda.metrics.v1" / "parda.histogram.v1" /
// chrome://tracing schemas without an external dependency.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace parda::json {

/// Malformed JSON input (parse) or structural misuse (typed accessors).
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-style JSON writer. Commas and key/value structure are handled by
/// the begin/end calls; strings are escaped.
class Writer {
 public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();
  /// Must be called inside an object, before each value.
  Writer& key(std::string_view k);
  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(std::uint64_t v);
  Writer& value(std::int64_t v);
  Writer& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Writer& value(double v);
  Writer& value(bool v);
  Writer& null();
  /// Splices pre-rendered JSON in value position verbatim (no escaping).
  /// The caller owns the well-formedness of `json` — used to embed one
  /// writer's document (e.g. a metrics snapshot) inside another.
  Writer& raw(std::string_view json);

  const std::string& str() const noexcept { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void comma();
  std::string out_;
  std::vector<bool> need_comma_;  // one entry per open container
};

void append_escaped(std::string& out, std::string_view s);

/// A parsed JSON value. Numbers keep their raw text so u64 counts survive
/// without a double round-trip.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  // string contents, or raw number text
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // insertion order

  bool is_object() const noexcept { return kind == Kind::kObject; }
  bool is_array() const noexcept { return kind == Kind::kArray; }
  bool is_number() const noexcept { return kind == Kind::kNumber; }
  bool is_string() const noexcept { return kind == Kind::kString; }

  /// Object member lookup; nullptr if absent or not an object.
  const Value* find(std::string_view key) const noexcept;
  /// Object member access; throws JsonError if absent.
  const Value& at(std::string_view key) const;

  /// Numbers read through util/parse.hpp: an integer token in range, or a
  /// finite double; anything else throws JsonError.
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  double as_double() const;
  const std::string& as_string() const;
};

/// Parses one JSON document (throws JsonError on malformed input or
/// trailing garbage).
Value parse(std::string_view text);

}  // namespace parda::json
