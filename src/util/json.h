#pragma once

// Minimal dependency-free JSON reader/writer for the scenario layer.
//
// Design goals, in order: (1) no third-party dependency, (2) deterministic
// output — objects preserve insertion order so a dump → parse → dump cycle
// is byte-stable, (3) precise error messages with line/column for hand-
// edited spec files. Not goals: streaming, comments, or speed on multi-MB
// documents (specs are a few hundred KB at most).

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace grunt::json {

class Value;

using Array = std::vector<Value>;
/// Insertion-order-preserving object (spec files are small; linear key
/// lookup is fine and keeps dumps deterministic).
using Object = std::vector<std::pair<std::string, Value>>;

enum class Kind : std::uint8_t {
  kNull,
  kBool,
  kNumber,
  kString,
  kArray,
  kObject,
};

const char* ToString(Kind k);

/// Thrown by the parser (with 1-based line/column) and by typed accessors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// One JSON value. Numbers are stored as double (specs never need 64-bit
/// integers beyond 2^53); `AsInt64` round-trips integral doubles exactly.
class Value {
 public:
  Value() : kind_(Kind::kNull) {}
  Value(std::nullptr_t) : kind_(Kind::kNull) {}  // NOLINT(runtime/explicit)
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  Value(double d) : kind_(Kind::kNumber), num_(d) {}  // NOLINT
  Value(std::int64_t i)  // NOLINT
      : kind_(Kind::kNumber), num_(static_cast<double>(i)) {}
  Value(int i) : Value(static_cast<std::int64_t>(i)) {}  // NOLINT
  Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}  // NOLINT
  Value(const char* s) : Value(std::string(s)) {}  // NOLINT
  Value(Array a) : kind_(Kind::kArray), arr_(std::move(a)) {}  // NOLINT
  Value(Object o) : kind_(Kind::kObject), obj_(std::move(o)) {}  // NOLINT

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw Error (naming the actual kind) on mismatch.
  bool AsBool() const;
  double AsDouble() const;
  std::int64_t AsInt64() const;  ///< throws if not integral or out of range
  const std::string& AsString() const;
  const Array& AsArray() const;
  const Object& AsObject() const;
  Array& MutableArray();
  Object& MutableObject();

  /// Object field lookup; nullptr when absent (or not an object).
  const Value* Find(std::string_view key) const;
  /// Object field lookup; throws Error naming the key when absent.
  const Value& At(std::string_view key) const;
  /// Sets (or replaces) an object field, preserving first-insertion order.
  void Set(std::string_view key, Value v);

  /// Serializes. `indent` > 0 pretty-prints with that many spaces per
  /// level; 0 emits the compact single-line form.
  std::string Dump(int indent = 2) const;

  friend bool operator==(const Value& a, const Value& b);

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Deepest container nesting Parse accepts. The parser recurses once per
/// level, so the cap keeps hostile input from overflowing the stack; real
/// specs and bench files nest at most 7 levels.
inline constexpr int kMaxDepth = 256;

/// Parses a complete JSON document (trailing garbage is an error). Throws
/// json::Error with 1-based line:column on malformed input, including
/// nesting deeper than kMaxDepth.
Value Parse(std::string_view text);

/// Reads and parses a file; throws json::Error (with the path) on I/O or
/// parse failure.
Value ParseFile(const std::string& path);

/// Writes `v.Dump(indent)` plus a trailing newline; throws on I/O failure.
void WriteFile(const std::string& path, const Value& v, int indent = 2);

}  // namespace grunt::json
