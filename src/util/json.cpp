#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace grunt::json {

const char* ToString(Kind k) {
  switch (k) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

namespace {

[[noreturn]] void KindMismatch(Kind want, Kind got) {
  throw Error(std::string("expected ") + ToString(want) + ", got " +
              ToString(got));
}

}  // namespace

bool Value::AsBool() const {
  if (kind_ != Kind::kBool) KindMismatch(Kind::kBool, kind_);
  return bool_;
}

double Value::AsDouble() const {
  if (kind_ != Kind::kNumber) KindMismatch(Kind::kNumber, kind_);
  return num_;
}

std::int64_t Value::AsInt64() const {
  if (kind_ != Kind::kNumber) KindMismatch(Kind::kNumber, kind_);
  const double rounded = std::nearbyint(num_);
  if (rounded != num_ || std::abs(num_) > 9.007199254740992e15) {
    throw Error("number is not an exact integer: " + Dump(0));
  }
  return static_cast<std::int64_t>(rounded);
}

const std::string& Value::AsString() const {
  if (kind_ != Kind::kString) KindMismatch(Kind::kString, kind_);
  return str_;
}

const Array& Value::AsArray() const {
  if (kind_ != Kind::kArray) KindMismatch(Kind::kArray, kind_);
  return arr_;
}

const Object& Value::AsObject() const {
  if (kind_ != Kind::kObject) KindMismatch(Kind::kObject, kind_);
  return obj_;
}

Array& Value::MutableArray() {
  if (kind_ != Kind::kArray) KindMismatch(Kind::kArray, kind_);
  return arr_;
}

Object& Value::MutableObject() {
  if (kind_ != Kind::kObject) KindMismatch(Kind::kObject, kind_);
  return obj_;
}

const Value* Value::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::At(std::string_view key) const {
  if (kind_ != Kind::kObject) KindMismatch(Kind::kObject, kind_);
  if (const Value* v = Find(key)) return *v;
  throw Error("missing key: \"" + std::string(key) + "\"");
}

void Value::Set(std::string_view key, Value v) {
  if (kind_ == Kind::kNull) {
    kind_ = Kind::kObject;
  } else if (kind_ != Kind::kObject) {
    KindMismatch(Kind::kObject, kind_);
  }
  for (auto& [k, old] : obj_) {
    if (k == key) {
      old = std::move(v);
      return;
    }
  }
  obj_.emplace_back(std::string(key), std::move(v));
}

bool operator==(const Value& a, const Value& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return a.bool_ == b.bool_;
    case Kind::kNumber: return a.num_ == b.num_;
    case Kind::kString: return a.str_ == b.str_;
    case Kind::kArray: return a.arr_ == b.arr_;
    case Kind::kObject: return a.obj_ == b.obj_;
  }
  return false;
}

// ---------------------------------------------------------------- writer ---

namespace {

void DumpString(std::string& out, const std::string& s) {
  out += '"';
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
          out += c;  // UTF-8 bytes pass through untouched
        }
    }
  }
  out += '"';
}

void DumpNumber(std::string& out, double d) {
  if (!std::isfinite(d)) throw Error("cannot serialize non-finite number");
  // Integers (the overwhelmingly common case in specs) print without a
  // fractional part; everything else uses shortest-round-trip %.17g trimmed
  // via a re-parse check at %.15g/%.16g.
  if (d == std::nearbyint(d) && std::abs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(std::llrint(d)));
    out += buf;
    return;
  }
  char buf[40];
  for (int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  out += buf;
}

void Newline(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Value::DumpTo(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      DumpNumber(out, num_);
      return;
    case Kind::kString:
      DumpString(out, str_);
      return;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        Newline(out, indent, depth + 1);
        arr_[i].DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        Newline(out, indent, depth + 1);
        DumpString(out, obj_[i].first);
        out += indent > 0 ? ": " : ":";
        obj_[i].second.DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Value::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------- parser ---

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value ParseDocument() {
    Value v = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw Error("JSON parse error at " + std::to_string(line) + ":" +
                std::to_string(col) + ": " + why);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Value ParseValue() {
    SkipWhitespace();
    switch (Peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth) {
          Fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        Value v = Peek() == '{' ? ParseObject() : ParseArray();
        --depth_;
        return v;
      }
      case '"': return Value(ParseString());
      case 't':
        if (Consume("true")) return Value(true);
        Fail("invalid literal");
      case 'f':
        if (Consume("false")) return Value(false);
        Fail("invalid literal");
      case 'n':
        if (Consume("null")) return Value(nullptr);
        Fail("invalid literal");
      default: return ParseNumber();
    }
  }

  Value ParseObject() {
    Expect('{');
    Object obj;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      for (const auto& [k, v] : obj) {
        if (k == key) Fail("duplicate object key: \"" + key + "\"");
      }
      SkipWhitespace();
      Expect(':');
      obj.emplace_back(std::move(key), ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return Value(std::move(obj));
    }
  }

  Value ParseArray() {
    Expect('[');
    Array arr;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return Value(std::move(arr));
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        Fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("invalid \\u escape");
            }
          }
          // Encode the BMP code point as UTF-8 (specs are ASCII in
          // practice; surrogate pairs are rejected rather than decoded).
          if (code >= 0xD800 && code <= 0xDFFF) {
            Fail("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: Fail("invalid escape character");
      }
    }
  }

  Value ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) Fail("invalid value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(d)) {
      pos_ = start;
      Fail("invalid number: \"" + token + "\"");
    }
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< containers open around pos_
};

}  // namespace

Value Parse(std::string_view text) { return Parser(text).ParseDocument(); }

Value ParseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    return Parse(ss.str());
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

void WriteFile(const std::string& path, const Value& v, int indent) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot open file for writing: " + path);
  out << v.Dump(indent) << '\n';
  if (!out) throw Error("write failed: " + path);
}

}  // namespace grunt::json
