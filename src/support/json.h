// Minimal JSON value type, parser, and serializer (RFC 8259 subset:
// UTF-8 passthrough, \uXXXX escapes decoded for the BMP). Used for the
// LEAF-format dataset interchange (data/leaf_json.h); no third-party
// dependency.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace fed {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
// std::map keeps key order deterministic for serialization.
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(int i) : value_(static_cast<double>(i)) {}
  JsonValue(std::int64_t i) : value_(static_cast<double>(i)) {}
  JsonValue(std::size_t i) : value_(static_cast<double>(i)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(JsonArray a) : value_(std::move(a)) {}
  JsonValue(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  // Typed accessors; throw std::runtime_error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  // A number that is a whole count: an integer in [0, 2^53], the range
  // a double holds exactly. Throws std::runtime_error otherwise.
  std::uint64_t as_count() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& as_array();
  JsonObject& as_object();

  // Object member access; throws if not an object or key missing.
  const JsonValue& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  bool operator==(const JsonValue& other) const = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

// Parses a complete JSON document; throws std::runtime_error with a byte
// offset on malformed input or trailing garbage.
JsonValue parse_json(const std::string& text);

// Serializes compactly (no insignificant whitespace). Numbers round-trip
// through shortest-exact formatting.
std::string serialize_json(const JsonValue& value);

// File helpers.
JsonValue load_json_file(const std::string& path);
void save_json_file(const std::string& path, const JsonValue& value);

}  // namespace fed
