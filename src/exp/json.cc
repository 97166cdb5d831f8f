#include "exp/json.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_set>

namespace stbpu::exp {

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

bool parse_uint(std::string_view text, std::uint64_t max, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (digit > max || v > (max - digit) / 10) return false;
    v = v * 10 + digit;
  }
  out = v;
  return true;
}

double JsonValue::as_double() const { return std::strtod(text_.c_str(), nullptr); }

bool JsonValue::as_uint(std::uint64_t max, std::uint64_t& out) const {
  return is_number() && parse_uint(text_, max, out);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

class JsonParser {
 public:
  JsonParser(const std::string& text, std::string& err) : s_(text), err_(err) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing characters after JSON value");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    err_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const { return pos_ >= s_.size(); }
  [[nodiscard]] char peek() const { return s_[pos_]; }

  bool literal(const char* word, JsonValue& out, JsonValue::Type type, bool b) {
    const std::size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return fail("bad literal");
    pos_ += len;
    out.type_ = type;
    out.bool_ = b;
    return true;
  }

  bool string_body(std::string& out) {
    ++pos_;  // opening quote
    while (true) {
      if (at_end()) return fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (at_end()) return fail("unterminated escape");
        const char e = s_[pos_++];
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
            if (pos_ + 4 > s_.size()) return fail("short \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return fail("bad \\u escape");
              }
            }
            // The writers only emit \u00xx control escapes; decode the
            // BMP point as UTF-8 for completeness.
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
          default:
            return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!at_end() && (peek() == '-' || peek() == '+')) ++pos_;
    bool digits = false;
    const auto eat_digits = [&] {
      while (!at_end() && peek() >= '0' && peek() <= '9') {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (!at_end() && peek() == '.') {
      ++pos_;
      eat_digits();
    }
    if (!digits) return fail("bad number");
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '-' || peek() == '+')) ++pos_;
      bool exp_digits = false;
      while (!at_end() && peek() >= '0' && peek() <= '9') {
        ++pos_;
        exp_digits = true;
      }
      if (!exp_digits) return fail("bad exponent");
    }
    out.type_ = JsonValue::Type::kNumber;
    out.text_ = s_.substr(start, pos_ - start);
    return true;
  }

  bool value(JsonValue& out) {
    if (at_end()) return fail("unexpected end of input");
    // Bounded nesting: malformed/hostile input must produce a parse error,
    // not exhaust the stack (this parser also reads --spec and shard files).
    if (depth_ >= kMaxDepth) return fail("nesting too deep");
    out.offset_ = pos_;
    ++depth_;
    const bool ok = value_inner(out);
    --depth_;
    return ok;
  }

  bool value_inner(JsonValue& out) {
    switch (peek()) {
      case 'n': return literal("null", out, JsonValue::Type::kNull, false);
      case 't': return literal("true", out, JsonValue::Type::kBool, true);
      case 'f': return literal("false", out, JsonValue::Type::kBool, false);
      case '"':
        out.type_ = JsonValue::Type::kString;
        return string_body(out.text_);
      case '[': {
        ++pos_;
        out.type_ = JsonValue::Type::kArray;
        skip_ws();
        if (!at_end() && peek() == ']') {
          ++pos_;
          return true;
        }
        while (true) {
          JsonValue item;
          skip_ws();
          if (!value(item)) return false;
          out.items_.push_back(std::move(item));
          skip_ws();
          if (at_end()) return fail("unterminated array");
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          if (peek() == ']') {
            ++pos_;
            return true;
          }
          return fail("expected ',' or ']'");
        }
      }
      case '{': {
        ++pos_;
        out.type_ = JsonValue::Type::kObject;
        skip_ws();
        if (!at_end() && peek() == '}') {
          ++pos_;
          return true;
        }
        std::unordered_set<std::string> seen;
        while (true) {
          skip_ws();
          if (at_end() || peek() != '"') return fail("expected object key");
          const std::size_t key_at = pos_;
          std::string key;
          if (!string_body(key)) return false;
          // A repeated key would be read by first match (find) and the
          // rest silently ignored; spec, shard and frame readers all rely
          // on each key meaning one thing. A set keeps hostile inputs with
          // many keys from making the check quadratic.
          if (!seen.insert(key).second) {
            err_ = "repeated object key '" + key + "' at offset " + std::to_string(key_at);
            return false;
          }
          skip_ws();
          if (at_end() || peek() != ':') return fail("expected ':'");
          ++pos_;
          skip_ws();
          JsonValue member;
          if (!value(member)) return false;
          out.members_.emplace_back(std::move(key), std::move(member));
          skip_ws();
          if (at_end()) return fail("unterminated object");
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          if (peek() == '}') {
            ++pos_;
            return true;
          }
          return fail("expected ',' or '}'");
        }
      }
      default:
        return number(out);
    }
  }

  static constexpr int kMaxDepth = 96;

  const std::string& s_;
  std::string& err_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

bool json_parse(const std::string& text, JsonValue& out, std::string& err) {
  out = JsonValue{};
  return JsonParser(text, err).parse(out);
}

}  // namespace stbpu::exp
