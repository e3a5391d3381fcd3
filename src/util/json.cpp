#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cerrno>
#include <cstdlib>

#include "util/error.hpp"

namespace pgb {

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw InvalidArgument("json: missing member \"" + key + "\"");
  return *v;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) throw InvalidArgument("json: not an object");
  auto it = obj->find(key);
  return it == obj->end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(std::size_t i) const {
  if (kind != Kind::kArray) throw InvalidArgument("json: not an array");
  if (i >= arr->size()) throw InvalidArgument("json: index out of range");
  return (*arr)[i];
}

std::size_t JsonValue::size() const {
  if (kind == Kind::kArray) return arr->size();
  if (kind == Kind::kObject) return obj->size();
  throw InvalidArgument("json: size() on a scalar");
}

const std::string& JsonValue::as_string() const {
  if (kind != Kind::kString) throw InvalidArgument("json: not a string");
  return str;
}

double JsonValue::as_double() const {
  if (kind != Kind::kNumber) throw InvalidArgument("json: not a number");
  return num;
}

std::int64_t JsonValue::as_int() const {
  if (kind != Kind::kNumber || !is_int) {
    throw InvalidArgument("json: not an integer");
  }
  return i64;
}

bool JsonValue::as_bool() const {
  if (kind != Kind::kBool) throw InvalidArgument("json: not a boolean");
  return boolean;
}

namespace {

/// Deepest array/object nesting accepted. Every JSON file the repo
/// commits or its exporters write nests at most 8 deep; the cap keeps a
/// hostile document from exhausting the stack of the recursive descent.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw InvalidArgument("json: " + why + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= s_.size()) {
      throw InvalidArgument("json: unexpected end of input at byte " +
                            std::to_string(pos_));
    }
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.str = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  /// One level of array/object nesting, for as long as it is open.
  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxDepth) {
        p_.fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
    }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;
    ~Nest() { --p_.depth_; }

   private:
    Parser& p_;
  };

  JsonValue parse_object() {
    const Nest nest(*this);
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    v.obj = std::make_shared<JsonObject>();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      (*v.obj)[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    const Nest nest(*this);
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    v.arr = std::make_shared<JsonArray>();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      v.arr->push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  /// Appends `cp` to `out` as UTF-8.
  static void encode_utf8(unsigned cp, std::string& out) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = peek();
      ++pos_;
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
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // surrogate pair
            if (peek() != '\\') fail("unpaired surrogate");
            ++pos_;
            if (peek() != 'u') fail("unpaired surrogate");
            ++pos_;
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          encode_utf8(cp, out);
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  bool at_digit() const {
    return pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0;
  }

  /// One or more digits.
  void digits() {
    if (!at_digit()) fail("bad number");
    while (at_digit()) ++pos_;
  }

  /// RFC 8259: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, within
  /// the range of a double.
  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '0') {
      ++pos_;
    } else {
      digits();
    }
    bool integral = true;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      integral = false;
      ++pos_;
      digits();
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      digits();
    }
    const std::string tok = s_.substr(start, pos_ - start);
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    char* end = nullptr;
    v.num = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail("bad number");
    if (std::isinf(v.num)) fail("number out of range");
    if (integral) {
      errno = 0;
      const long long ll = std::strtoll(tok.c_str(), &end, 10);
      if (errno == 0 && end == tok.c_str() + tok.size()) {
        v.is_int = true;
        v.i64 = static_cast<std::int64_t>(ll);
      }
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue json_parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace pgb
