#include "common/json.hpp"

#include <charconv>

namespace cryptodrop {

namespace {

/// Recursive-descent reader over a string_view cursor. Every failure
/// records what went wrong; the position is the offset reported.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  Result<Json> document() {
    Json value;
    if (!parse_value(value, 0)) return fail();
    skip_ws();
    if (pos_ != text_.size()) {
      error_ = "trailing characters after JSON value";
      return fail();
    }
    return value;
  }

 private:
  Status fail() const {
    return Status(Errc::invalid_argument,
                  error_ + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word, Json value, Json& out) {
    if (text_.substr(pos_, word.size()) != word) {
      error_ = "bad literal";
      return false;
    }
    pos_ += word.size();
    out = std::move(value);
    return true;
  }

  bool parse_value(Json& out, int depth) {
    skip_ws();
    if (pos_ >= text_.size()) {
      error_ = "unexpected end of input";
      return false;
    }
    switch (text_[pos_]) {
      case 'n': return literal("null", Json(), out);
      case 't': return literal("true", Json(true), out);
      case 'f': return literal("false", Json(false), out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json(std::move(s));
        return true;
      }
      case '[':
      case '{':
        if (depth >= Json::kMaxParseDepth) {
          error_ = "nesting deeper than " + std::to_string(Json::kMaxParseDepth);
          return false;
        }
        return text_[pos_] == '[' ? parse_array(out, depth + 1)
                                  : parse_object(out, depth + 1);
      default: return parse_number(out);
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
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
        case 'u':
          if (!parse_unicode_escape(out)) return false;
          break;
        default:
          error_ = "bad escape";
          return false;
      }
    }
    error_ = "unterminated string";
    return false;
  }

  /// The four hex digits after `\u`, UTF-8 encoded as one BMP code
  /// point (the serializer only ever writes \u00XX control escapes, so
  /// surrogate pairs are not combined).
  bool parse_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) {
      error_ = "truncated \\u escape";
      return false;
    }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else {
        error_ = "bad \\u escape";
        return false;
      }
    }
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
    return true;
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      error_ = "expected a value";
      return false;
    }
    double number = 0.0;
    const char* end = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(text_.data() + start, end, number);
    if (ec != std::errc() || ptr != end) {
      error_ = "bad number '" + std::string(text_.substr(start, pos_ - start)) + "'";
      pos_ = start;
      return false;
    }
    out = Json(number);
    return true;
  }

  bool parse_array(Json& out, int depth) {
    out = Json::array();
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json item;
      if (!parse_value(item, depth)) return false;
      out.push(std::move(item));
      skip_ws();
      if (pos_ >= text_.size()) {
        error_ = "unterminated array";
        return false;
      }
      const char c = text_[pos_];
      if (c != ']' && c != ',') {
        error_ = "expected ',' or ']'";
        return false;
      }
      ++pos_;
      if (c == ']') return true;
    }
  }

  bool parse_object(Json& out, int depth) {
    out = Json::object();
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        error_ = "expected object key";
        return false;
      }
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        error_ = "expected ':'";
        return false;
      }
      ++pos_;
      Json value;
      if (!parse_value(value, depth)) return false;
      out.set(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) {
        error_ = "unterminated object";
        return false;
      }
      const char c = text_[pos_];
      if (c != '}' && c != ',') {
        error_ = "expected ',' or '}'";
        return false;
      }
      ++pos_;
      if (c == '}') return true;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

Result<Json> Json::parse(std::string_view text) {
  return Reader(text).document();
}

}  // namespace cryptodrop
