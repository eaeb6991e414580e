#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"

namespace dbm {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const JsonValue* found = nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) found = &v;  // last duplicate wins
  }
  return found;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    DBM_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Err("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::ParseError(
        StrFormat("json: %s at offset %zu", what.c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    if (++depth_ > kMaxDepth) return Err("nesting too deep");
    struct DepthGuard {
      int& d;
      ~DepthGuard() { --d; }
    } guard{depth_};
    SkipWhitespace();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': return ParseString();
      case 't':
        if (ConsumeWord("true")) return Bool(true);
        return Err("bad literal");
      case 'f':
        if (ConsumeWord("false")) return Bool(false);
        return Err("bad literal");
      case 'n':
        if (ConsumeWord("null")) return JsonValue{};
        return Err("bad literal");
      default: return ParseNumber();
    }
  }

  static JsonValue Bool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    v.boolean = b;
    return v;
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected a value");
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double d = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') return Err("malformed number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = d;
    return v;
  }

  // Reads exactly four hex digits at pos_ into *out.
  Status ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else return Err("bad \\u escape");
    }
    *out = code;
    return Status::OK();
  }

  // Appends the UTF-8 encoding of `code` (a valid scalar value —
  // surrogates were rejected by the caller) to *out.
  static void AppendUtf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xc0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xe0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      *out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      *out += static_cast<char>(0xf0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      *out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  Result<JsonValue> ParseString() {
    if (!Consume('"')) return Err("expected '\"'");
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.str += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': v.str += '"'; break;
        case '\\': v.str += '\\'; break;
        case '/': v.str += '/'; break;
        case 'b': v.str += '\b'; break;
        case 'f': v.str += '\f'; break;
        case 'n': v.str += '\n'; break;
        case 'r': v.str += '\r'; break;
        case 't': v.str += '\t'; break;
        case 'u': {
          // RFC 8259 escapes: four hex digits name a UTF-16 code unit; a
          // high surrogate must be followed by "\uDC00".."\uDFFF" and
          // the pair combines into a supplementary code point. The
          // decoded code point is emitted as UTF-8.
          unsigned code = 0;
          DBM_RETURN_NOT_OK(ParseHex4(&code));
          if (code >= 0xdc00 && code <= 0xdfff) {
            return Err("unpaired low surrogate in \\u escape");
          }
          if (code >= 0xd800 && code <= 0xdbff) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Err("high surrogate not followed by \\u escape");
            }
            pos_ += 2;
            unsigned low = 0;
            DBM_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xdc00 || low > 0xdfff) {
              return Err("high surrogate not followed by low surrogate");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
          }
          AppendUtf8(&v.str, code);
          break;
        }
        default: return Err("bad escape");
      }
    }
    return Err("unterminated string");
  }

  Result<JsonValue> ParseArray() {
    if (!Consume('[')) return Err("expected '['");
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return v;
    while (true) {
      DBM_ASSIGN_OR_RETURN(JsonValue elem, ParseValue());
      v.array.push_back(std::move(elem));
      SkipWhitespace();
      if (Consume(']')) return v;
      if (!Consume(',')) return Err("expected ',' or ']'");
    }
  }

  Result<JsonValue> ParseObject() {
    if (!Consume('{')) return Err("expected '{'");
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return v;
    while (true) {
      SkipWhitespace();
      DBM_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Err("expected ':'");
      DBM_ASSIGN_OR_RETURN(JsonValue val, ParseValue());
      v.object.emplace_back(std::move(key.str), std::move(val));
      SkipWhitespace();
      if (Consume('}')) return v;
      if (!Consume(',')) return Err("expected ',' or '}'");
    }
  }

  static constexpr int kMaxDepth = 96;
  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace dbm
