#include "util/json.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>

#include "util/parse.hpp"

namespace parda::json {

// --- Writer ----------------------------------------------------------------

void append_escaped(std::string& out, std::string_view s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void Writer::comma() {
  if (!need_comma_.empty()) {
    if (need_comma_.back()) out_ += ',';
    need_comma_.back() = true;
  }
}

Writer& Writer::begin_object() {
  comma();
  out_ += '{';
  need_comma_.push_back(false);
  return *this;
}

Writer& Writer::end_object() {
  out_ += '}';
  need_comma_.pop_back();
  return *this;
}

Writer& Writer::begin_array() {
  comma();
  out_ += '[';
  need_comma_.push_back(false);
  return *this;
}

Writer& Writer::end_array() {
  out_ += ']';
  need_comma_.pop_back();
  return *this;
}

Writer& Writer::key(std::string_view k) {
  comma();
  append_escaped(out_, k);
  out_ += ':';
  // The upcoming value must not emit another comma.
  if (!need_comma_.empty()) need_comma_.back() = false;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  comma();
  append_escaped(out_, s);
  return *this;
}

Writer& Writer::value(std::uint64_t v) {
  comma();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out_ += buf;
  return *this;
}

Writer& Writer::value(std::int64_t v) {
  comma();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out_ += buf;
  return *this;
}

Writer& Writer::value(double v) {
  comma();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out_ += buf;
  return *this;
}

Writer& Writer::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

Writer& Writer::null() {
  comma();
  out_ += "null";
  return *this;
}

Writer& Writer::raw(std::string_view json) {
  comma();
  out_ += json;
  return *this;
}

// --- Value accessors -------------------------------------------------------

const Value* Value::find(std::string_view key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw JsonError("missing JSON object member: " + std::string(key));
  }
  return *v;
}

std::uint64_t Value::as_u64() const {
  const auto v = kind == Kind::kNumber ? parse_u64(text) : std::nullopt;
  if (!v) throw JsonError("JSON value is not an unsigned 64-bit integer");
  return *v;
}

std::int64_t Value::as_i64() const {
  const auto v = kind == Kind::kNumber ? parse_i64(text) : std::nullopt;
  if (!v) throw JsonError("JSON value is not a signed 64-bit integer");
  return *v;
}

double Value::as_double() const {
  const auto v = kind == Kind::kNumber ? parse_f64(text) : std::nullopt;
  if (!v) throw JsonError("JSON value is not a finite number");
  return *v;
}

const std::string& Value::as_string() const {
  if (kind != Kind::kString) throw JsonError("JSON value is not a string");
  return text;
}

// --- Parser ----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw JsonError(what + " (at byte " + std::to_string(pos_) + ")");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of JSON");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't':
      case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  Value parse_object() {
    Value v;
    v.kind = Value::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      Value key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key.text), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    Value v;
    v.kind = Value::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Value parse_string() {
    Value v;
    v.kind = Value::Kind::kString;
    expect('"');
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.text += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': v.text += '"'; break;
        case '\\': v.text += '\\'; break;
        case '/': v.text += '/'; break;
        case 'b': v.text += '\b'; break;
        case 'f': v.text += '\f'; break;
        case 'n': v.text += '\n'; break;
        case 'r': v.text += '\r'; break;
        case 't': v.text += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // ASCII only (all this repo ever emits); encode the rest as UTF-8.
          if (code < 0x80) {
            v.text += static_cast<char>(code);
          } else if (code < 0x800) {
            v.text += static_cast<char>(0xC0 | (code >> 6));
            v.text += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            v.text += static_cast<char>(0xE0 | (code >> 12));
            v.text += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            v.text += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_bool() {
    Value v;
    v.kind = Value::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  Value parse_null() {
    if (text_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return Value{};
  }

  Value parse_number() {
    Value v;
    v.kind = Value::Kind::kNumber;
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        digits = true;
      }
      ++pos_;
    }
    if (!digits) fail("bad number");
    v.text.assign(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace parda::json
