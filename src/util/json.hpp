// Minimal JSON reader for the tools that consume our own exporters'
// output (profile.json, metrics.json, Chrome traces).
//
// This is deliberately a *reader*, not a serializer: every JSON file in
// this repo is emitted by hand-rolled, stable-format writers (the
// exporters control key order and float formatting so baselines diff
// byte-for-byte), and the consumers — `pgb_diff`, tests that round-trip
// the trace exporter — only need faithful parsing. Full RFC 8259 input
// grammar: objects, arrays, strings with escapes (incl. \uXXXX, encoded
// back to UTF-8), numbers, true/false/null. Parse errors throw
// InvalidArgument with a byte offset; so do arrays and objects nested
// more than 64 deep and numbers beyond the range of a double, since the
// tools also read files they did not write.
//
// Numbers keep both views: `num` (double) always, and `i64` when the
// token was an integer literal that fits std::int64_t — the profile
// gate needs exact integer comparison for message/byte counts, which a
// double round-trip would only guarantee up to 2^53.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pgb {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// std::map keeps members sorted; our writers emit sorted keys anyway,
/// and the consumers look members up by name rather than by position.
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double num = 0.0;
  bool is_int = false;       ///< numeric token was an integer in range
  std::int64_t i64 = 0;      ///< exact value when `is_int`
  std::string str;
  std::shared_ptr<JsonArray> arr;
  std::shared_ptr<JsonObject> obj;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Object member access; throws InvalidArgument when this is not an
  /// object or the key is absent (`find` for the optional variant).
  const JsonValue& at(const std::string& key) const;
  const JsonValue* find(const std::string& key) const;

  /// Array element access with bounds checking.
  const JsonValue& at(std::size_t i) const;
  std::size_t size() const;

  /// Checked scalar accessors (throw on kind mismatch).
  const std::string& as_string() const;
  double as_double() const;
  std::int64_t as_int() const;
  bool as_bool() const;
};

/// Parses one JSON document (surrounding whitespace allowed; trailing
/// non-whitespace is an error). Throws InvalidArgument on malformed
/// input, with the byte offset in the message.
JsonValue json_parse(const std::string& text);

}  // namespace pgb
