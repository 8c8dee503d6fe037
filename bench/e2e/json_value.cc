#include <cstdlib>
#include <string>

#include "e2e.h"

namespace locaware::e2e {
namespace {

/// Recursive-descent reader over one document. Depth is bounded so a
/// hostile file cannot overflow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Document() {
    JsonValue value;
    if (!Value(&value, 0)) return Error();
    SkipSpace();
    if (pos_ != text_.size()) return Error();
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error() const {
    return Status::InvalidArgument("malformed JSON near byte " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return String(&out->string);
    }
    if (Literal("true") || Literal("false")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = c == 't';
      return true;
    }
    if (Literal("null")) return true;
    return Number(out);
  }

  bool Number(JsonValue* out) {
    const auto numeric = [](char c) {
      return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' || c == 'e' ||
             c == 'E';
    };
    const size_t start = pos_;
    while (pos_ < text_.size() && numeric(text_[pos_])) ++pos_;
    if (pos_ == start) return false;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out->push_back(e);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          const std::string hex(text_.substr(pos_, 4));
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return false;
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          pos_ += 4;
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  /// Consumes `c` after optional whitespace; false (consuming nothing but
  /// the whitespace) when the next character differs.
  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Array(JsonValue* out, int depth) {
    ++pos_;
    out->type = JsonValue::Type::kArray;
    if (Consume(']')) return true;
    do {
      out->items.emplace_back();
      if (!Value(&out->items.back(), depth + 1)) return false;
    } while (Consume(','));
    return Consume(']');
  }

  bool Object(JsonValue* out, int depth) {
    ++pos_;
    out->type = JsonValue::Type::kObject;
    if (Consume('}')) return true;
    do {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') return false;
      out->members.emplace_back();
      if (!String(&out->members.back().first)) return false;
      if (!Consume(':')) return false;
      if (!Value(&out->members.back().second, depth + 1)) return false;
    } while (Consume(','));
    return Consume('}');
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::Number(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->type == Type::kNumber ? v->number : fallback;
}

std::string JsonValue::String(std::string_view key) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->type == Type::kString ? v->string : std::string();
}

Result<JsonValue> ParseJson(std::string_view text) { return Parser(text).Document(); }

}  // namespace locaware::e2e
