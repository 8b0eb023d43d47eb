#include "json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace e2e {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(Json* out, std::string* error) {
    if (!Value(out, 0) || (SkipSpace(), pos_ != text_.size())) {
      *error = "malformed json near byte " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  // Nesting bound: the documents read here are a few levels deep.
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Value(Json* out, int depth) {
    SkipSpace();
    if (pos_ >= text_.size() || depth > kMaxDepth) return false;
    const char c = text_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->string);
    }
    if (Literal("true")) {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->type = Json::Type::kBool;
      return true;
    }
    if (Literal("null")) return true;
    return NumberValue(out);
  }

  bool NumberValue(Json* out) {
    const std::string token(text_.substr(pos_, 64));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str()) return false;
    pos_ += static_cast<size_t>(end - token.c_str());
    out->type = Json::Type::kNumber;
    out->number = value;
    return true;
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
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          // The harness only ever writes ASCII; keep other code points as
          // '?' rather than implementing UTF-16 surrogate decoding.
          if (pos_ + 4 > text_.size()) return false;
          const unsigned long cp = std::strtoul(
              std::string(text_.substr(pos_, 4)).c_str(), nullptr, 16);
          out->push_back(cp < 0x80 ? static_cast<char>(cp) : '?');
          pos_ += 4;
          break;
        }
        default: out->push_back(e);
      }
    }
    return false;
  }

  bool Array(Json* out, int depth) {
    ++pos_;
    out->type = Json::Type::kArray;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      out->array.emplace_back();
      if (!Value(&out->array.back(), depth + 1)) return false;
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      if (text_[pos_++] != ',') return false;
    }
  }

  bool Object(Json* out, int depth) {
    ++pos_;
    out->type = Json::Type::kObject;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !String(&key)) {
        return false;
      }
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
      if (!Value(&out->object[key], depth + 1)) return false;
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      if (text_[pos_++] != ',') return false;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const Json& Json::operator[](const std::string& key) const {
  static const Json kNull;
  if (type != Type::kObject) return kNull;
  const auto it = object.find(key);
  return it == object.end() ? kNull : it->second;
}

double Json::Num(const std::string& key, double fallback) const {
  const Json& v = (*this)[key];
  return v.type == Type::kNumber ? v.number : fallback;
}

bool ParseJson(std::string_view text, Json* out, std::string* error) {
  *out = Json();
  return Parser(text).Parse(out, error);
}

bool ReadJsonFile(const std::string& path, Json* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!ParseJson(buffer.str(), out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace e2e
