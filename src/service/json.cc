#include "service/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace rpqi {
namespace service {
namespace {

constexpr int kMaxDepth = 64;

void AppendInt(int64_t value, std::string* out) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%lld",
                static_cast<long long>(value));
  out->append(buffer);
}

void AppendDouble(double value, std::string* out) {
  if (!std::isfinite(value)) {  // NaN/Inf are not JSON; degrade to null
    out->append("null");
    return;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out->append(buffer);
}

/// Recursive-descent parser over a bounded cursor. All failures carry the
/// byte offset so protocol errors point at the offending character.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Json> Parse() {
    RPQI_ASSIGN_OR_RETURN(Json value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("json at byte " + std::to_string(pos_) +
                                   ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  StatusOr<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting deeper than 64 levels");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        RPQI_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json::Str(std::move(s));
      }
      case 't':
        if (ConsumeWord("true")) return Json::Bool(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeWord("false")) return Json::Bool(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeWord("null")) return Json::Null();
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  StatusOr<Json> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonObject members;
    SkipWhitespace();
    if (Consume('}')) return Json::Obj(std::move(members));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      RPQI_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      RPQI_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Json::Obj(std::move(members));
      return Error("expected ',' or '}' in object");
    }
  }

  StatusOr<Json> ParseArray(int depth) {
    ++pos_;  // '['
    JsonArray elements;
    SkipWhitespace();
    if (Consume(']')) return Json::Arr(std::move(elements));
    while (true) {
      RPQI_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      elements.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Json::Arr(std::move(elements));
      return Error("expected ',' or ']' in array");
    }
  }

  StatusOr<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          RPQI_ASSIGN_OR_RETURN(int code, ParseHex4());
          // Encode the code point as UTF-8. Surrogate pairs are passed
          // through as two 3-byte sequences (CESU-8): the protocol only
          // round-trips identifiers, it does not normalize text.
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
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  StatusOr<int> ParseHex4() {
    int value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) return Error("unterminated \\u escape");
      char c = text_[pos_++];
      value <<= 4;
      if ('0' <= c && c <= '9') {
        value |= c - '0';
      } else if ('a' <= c && c <= 'f') {
        value |= c - 'a' + 10;
      } else if ('A' <= c && c <= 'F') {
        value |= c - 'A' + 10;
      } else {
        return Error("invalid \\u escape digit");
      }
    }
    return value;
  }

  StatusOr<Json> ParseNumber() {
    size_t start = pos_;
    Consume('-');
    while (pos_ < text_.size() && '0' <= text_[pos_] && text_[pos_] <= '9') {
      ++pos_;
    }
    bool integral = true;
    if (Consume('.')) {
      integral = false;
      while (pos_ < text_.size() && '0' <= text_[pos_] && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && '0' <= text_[pos_] && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") return Error("invalid number");
    errno = 0;
    if (integral) {
      char* end = nullptr;
      long long value = std::strtoll(token.c_str(), &end, 10);
      if (errno != ERANGE && end == token.c_str() + token.size()) {
        return Json::Int(value);
      }
      errno = 0;  // integer overflow: fall through to double
    }
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno == ERANGE) {
      return Error("invalid number '" + token + "'");
    }
    return Json::Double(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

void JsonEscapeTo(std::string_view text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out->append(buffer);
        } else {
          out->push_back(c);
        }
    }
  }
}

void Json::DumpTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      return;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Type::kInt:
      AppendInt(int_, out);
      return;
    case Type::kDouble:
      AppendDouble(double_, out);
      return;
    case Type::kString:
      out->push_back('"');
      JsonEscapeTo(string_, out);
      out->push_back('"');
      return;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& element : array_) {
        if (!first) out->push_back(',');
        first = false;
        element.DumpTo(out);
      }
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out->push_back(',');
        first = false;
        out->push_back('"');
        JsonEscapeTo(key, out);
        out->push_back('"');
        out->push_back(':');
        value.DumpTo(out);
      }
      out->push_back('}');
      return;
    }
    case Type::kRaw:
      out->append(*raw_);
      return;
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

StatusOr<Json> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace service
}  // namespace rpqi
