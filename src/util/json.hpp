// JSON in and out for the observability layer and the bench artifacts.
//
// JsonWriter (moved here from bench/bench_common.hpp so library code — the
// metrics registry, the stats-scrape frame, the trace exporter — can emit
// the same artifact format as the benches): a minimal streaming emitter
// with automatic comma placement, two-space indentation and
// round-trippable doubles. Non-finite doubles (NaN, ±Inf) emit `null` —
// bare NaN/Infinity tokens are not JSON and used to corrupt BENCH_*.json
// whenever a timing ratio divided by zero.
//
// Value is the matching reader: a small recursive-descent parser for the
// artifacts the writer produces (and any other well-formed JSON document),
// used by tools/bench_diff to compare bench snapshots and by the
// stats-scrape client to unpack a daemon's metrics. Strict: trailing
// garbage, unterminated structures, bad escapes and over-deep nesting all
// throw ParseError. No DOM library dependency either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace wp::json {

// ------------------------------------------------------------ JsonWriter

/// Minimal streaming JSON emitter for bench artifacts (BENCH_*.json):
/// begin/end object/array with automatic comma placement and two-space
/// indentation, string escaping for the control/quote/backslash set.
/// Numbers print with enough digits to round-trip doubles; non-finite
/// doubles print as null (NaN/Infinity are not JSON). No dependency,
/// no DOM — callers stream straight into an ostream.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// Key of the next value inside an object: writer.key("x").value(1.0);
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& text);
  JsonWriter& value(const char* text) { return value(std::string(text)); }
  JsonWriter& value(double number);
  JsonWriter& value(unsigned long long number);
  JsonWriter& value(unsigned long number) {
    return value(static_cast<unsigned long long>(number));
  }
  JsonWriter& value(unsigned number) {
    return value(static_cast<unsigned long long>(number));
  }
  JsonWriter& value(long long number);
  JsonWriter& value(int number) { return value(static_cast<long long>(number)); }
  JsonWriter& value(bool flag);
  JsonWriter& null_value();

  /// key + value in one call, the dominant pattern.
  template <typename T>
  JsonWriter& field(const std::string& name, const T& v) {
    key(name);
    return value(v);
  }

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  void separate();
  void indent();
  void quote(const std::string& text);

  std::ostream& os_;
  int depth_ = 0;
  bool first_in_scope_ = true;
  bool just_keyed_ = false;
};

// ------------------------------------------------------------------ Value

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at byte " + std::to_string(offset)) {}
};

/// An immutable parsed JSON document. Objects keep insertion order (the
/// writer emits deterministic key order, so round trips are byte-stable);
/// lookup is linear — our documents are small and shallow.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, Value>;

  Value() = default;  ///< null

  Kind kind() const { return kind_; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; wrong-kind access throws ParseError(offset 0).
  bool as_bool() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Array access.
  std::size_t size() const;
  const Value& at(std::size_t index) const;

  /// Object access: nullptr when the key is absent.
  const Value* find(const std::string& key) const;
  const std::vector<Member>& members() const;

  /// Parses one complete JSON document; trailing non-space bytes throw.
  static Value parse(const std::string& text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> object_;

  friend class Parser;
};

}  // namespace wp::json
