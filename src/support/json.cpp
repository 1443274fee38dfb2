#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace ara::json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

void append_escaped(std::string& out, std::string_view s) {
  // Bytes that need no escape are appended a run at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(std::string* error) {
    std::optional<Value> v = parse_value();
    if (v) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing characters after value");
        v = std::nullopt;
      }
    }
    if (!v && error != nullptr) *error = error_;
    return v;
  }

 private:
  void fail(std::string why) {
    if (error_.empty()) error_ = "offset " + std::to_string(pos_) + ": " + std::move(why);
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool eat_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    fail("expected '" + std::string(word) + "'");
    return false;
  }

  std::optional<Value> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string_value();
      case 't':
        if (!eat_literal("true")) return std::nullopt;
        return make_bool(true);
      case 'f':
        if (!eat_literal("false")) return std::nullopt;
        return make_bool(false);
      case 'n':
        if (!eat_literal("null")) return std::nullopt;
        return Value{};
      default:
        return parse_number();
    }
  }

  static Value make_bool(bool b) {
    Value v;
    v.kind = Value::Kind::Bool;
    v.boolean = b;
    return v;
  }

  std::optional<Value> parse_object() {
    ++pos_;  // '{'
    Value v;
    v.kind = Value::Kind::Object;
    skip_ws();
    if (eat('}')) return v;
    while (true) {
      skip_ws();
      std::optional<std::string> key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!eat(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      std::optional<Value> member = parse_value();
      if (!member) return std::nullopt;
      v.object.emplace_back(std::move(*key), std::move(*member));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return v;
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<Value> parse_array() {
    ++pos_;  // '['
    Value v;
    v.kind = Value::Kind::Array;
    skip_ws();
    if (eat(']')) return v;
    while (true) {
      std::optional<Value> item = parse_value();
      if (!item) return std::nullopt;
      v.array.push_back(std::move(*item));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return v;
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<Value> parse_string_value() {
    std::optional<std::string> s = parse_string();
    if (!s) return std::nullopt;
    Value v;
    v.kind = Value::Kind::String;
    v.string = std::move(*s);
    return v;
  }

  std::optional<std::string> parse_string() {
    if (!eat('"')) {
      fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      // Everything up to the next quote or backslash is one run.
      std::size_t end = pos_;
      while (end < text_.size() && text_[end] != '"' && text_[end] != '\\') ++end;
      out.append(text_.data() + pos_, end - pos_);
      pos_ = end;
      if (pos_ >= text_.size()) break;
      if (text_[pos_++] == '"') return out;
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned code = 0;
          const auto [ptr, ec] =
              std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
          if (ec != std::errc{} || ptr != text_.data() + pos_ + 4) {
            fail("bad \\u escape");
            return std::nullopt;
          }
          pos_ += 4;
          // Basic-plane only (no surrogate pairing): encode as UTF-8.
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
          fail("unknown escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool any = false;
    bool dot = false;
    bool exp = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        any = true;
        ++pos_;
      } else if (c == '.' && !dot && !exp) {
        dot = true;
        ++pos_;
      } else if ((c == 'e' || c == 'E') && any && !exp) {
        exp = true;
        ++pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
      } else {
        break;
      }
    }
    if (!any) {
      fail("expected a value");
      return std::nullopt;
    }
    Value v;
    v.kind = Value::Kind::Number;
    v.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace ara::json
