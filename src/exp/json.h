// Minimal JSON layer for the experiment API: a recursive-descent parser
// producing an ordered DOM (object keys keep file order, numbers keep their
// raw literal text) plus the quoting helper shared by every writer.
//
// The raw-text preservation matters: sharded sweeps serialize doubles with
// %.17g (exact round-trip), and `stbpu_bench merge` re-reads them through
// strtod so the merged aggregate is computed on bit-identical values — the
// merged BENCH_*.json must equal an unsharded run byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace stbpu::exp {

/// JSON string escaping (quotes, backslashes, control chars).
[[nodiscard]] std::string json_quote(const std::string& s);

/// The one integer parse behind spec JSON, shard files and CLI flags: a
/// plain decimal digit run (no sign, fraction, exponent or whitespace)
/// whose value is at most `max`. False on anything else, so a value is
/// never wrapped, truncated or saturated into a different one.
[[nodiscard]] bool parse_uint(std::string_view text, std::uint64_t max,
                              std::uint64_t& out);

class JsonValue {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_string() const noexcept { return type_ == Type::kString; }
  [[nodiscard]] bool is_number() const noexcept { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  /// String payload, or the raw literal text for numbers.
  [[nodiscard]] const std::string& text() const noexcept { return text_; }
  [[nodiscard]] double as_double() const;
  /// Numeric literal through parse_uint; false for non-numbers and for
  /// anything parse_uint rejects.
  [[nodiscard]] bool as_uint(std::uint64_t max, std::uint64_t& out) const;

  /// Byte offset of this value's first character in the parsed text (0 for
  /// values not produced by json_parse). Error messages that point at a
  /// specific shard-file value (merge validation) use this.
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

  [[nodiscard]] const std::vector<JsonValue>& items() const noexcept { return items_; }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return members_;
  }
  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

 private:
  friend class JsonParser;
  Type type_ = Type::kNull;
  std::size_t offset_ = 0;
  bool bool_ = false;
  std::string text_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parse `text`; returns false (with a position-annotated message in `err`)
/// on malformed input, including an object that repeats a key.
bool json_parse(const std::string& text, JsonValue& out, std::string& err);

}  // namespace stbpu::exp
