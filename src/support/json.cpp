#include "support/json.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "support/csv.h"

namespace fed {

namespace {

[[noreturn]] void type_error(const char* expected) {
  throw std::runtime_error(std::string("json: value is not ") + expected);
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void expect_literal(const char* literal) {
    for (const char* p = literal; *p; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  JsonValue parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't': expect_literal("true"); return JsonValue(true);
      case 'f': expect_literal("false"); return JsonValue(false);
      case 'n': expect_literal("null"); return JsonValue(nullptr);
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object[std::move(key)] = parse_value();
      skip_whitespace();
      const char c = take();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return JsonValue(std::move(object));
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    for (;;) {
      array.push_back(parse_value());
      skip_whitespace();
      const char c = take();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return JsonValue(std::move(array));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail("bad escape character");
      }
    }
    return out;
  }

  void append_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    // Encode the BMP code point as UTF-8 (surrogate pairs unsupported —
    // sufficient for the dataset-interchange use case).
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    try {
      std::size_t used = 0;
      const double d = std::stod(token, &used);
      if (used != token.size()) throw std::invalid_argument(token);
      return JsonValue(d);
    } catch (const std::exception&) {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void serialize_to(const JsonValue& value, std::string& out);

void serialize_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void serialize_number(double d, std::string& out) {
  if (!std::isfinite(d)) {
    throw std::runtime_error("json: cannot serialize non-finite number");
  }
  // Integers within the exact double range print without a fraction.
  if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

void serialize_to(const JsonValue& value, std::string& out) {
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (value.is_number()) {
    serialize_number(value.as_number(), out);
  } else if (value.is_string()) {
    serialize_string(value.as_string(), out);
  } else if (value.is_array()) {
    out.push_back('[');
    const auto& array = value.as_array();
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (i) out.push_back(',');
      serialize_to(array[i], out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [key, member] : value.as_object()) {
      if (!first) out.push_back(',');
      first = false;
      serialize_string(key, out);
      out.push_back(':');
      serialize_to(member, out);
    }
    out.push_back('}');
  }
}

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) type_error("a bool");
  return std::get<bool>(value_);
}
double JsonValue::as_number() const {
  if (!is_number()) type_error("a number");
  return std::get<double>(value_);
}
std::uint64_t JsonValue::as_count() const {
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  const double d = is_number() ? std::get<double>(value_) : -1.0;
  if (!(d >= 0.0 && d <= kMaxExact) || d != std::floor(d)) {
    type_error("a count (an integer in [0, 2^53])");
  }
  return static_cast<std::uint64_t>(d);
}
const std::string& JsonValue::as_string() const {
  if (!is_string()) type_error("a string");
  return std::get<std::string>(value_);
}
const JsonArray& JsonValue::as_array() const {
  if (!is_array()) type_error("an array");
  return std::get<JsonArray>(value_);
}
const JsonObject& JsonValue::as_object() const {
  if (!is_object()) type_error("an object");
  return std::get<JsonObject>(value_);
}
JsonArray& JsonValue::as_array() {
  if (!is_array()) type_error("an array");
  return std::get<JsonArray>(value_);
}
JsonObject& JsonValue::as_object() {
  if (!is_object()) type_error("an object");
  return std::get<JsonObject>(value_);
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const auto& object = as_object();
  auto it = object.find(key);
  if (it == object.end()) {
    throw std::runtime_error("json: missing key '" + key + "'");
  }
  return it->second;
}

bool JsonValue::contains(const std::string& key) const {
  return is_object() && as_object().contains(key);
}

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

std::string serialize_json(const JsonValue& value) {
  std::string out;
  serialize_to(value, out);
  return out;
}

JsonValue load_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("json: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_json(buffer.str());
}

void save_json_file(const std::string& path, const JsonValue& value) {
  auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) ensure_directory(parent.string());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("json: cannot open " + path + " to write");
  out << serialize_json(value);
  if (!out) throw std::runtime_error("json: write failed: " + path);
}

}  // namespace fed
