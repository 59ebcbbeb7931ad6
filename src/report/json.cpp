#include "report/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

namespace mebl::report {

namespace {

void write_escaped(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      case '\b': out << "\\b"; break;
      case '\f': out << "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void write_indent(std::ostream& out, int depth) {
  for (int i = 0; i < depth; ++i) out << "  ";
}

/// Deepest array/object nesting the parser accepts. The parser recurses
/// once per level, so without a bound one line of `[[[[...` from a client
/// overflows the stack; every document the repo writes nests fewer than
/// ten levels deep.
constexpr int kMaxNestingDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> parse() {
    std::optional<Json> value = parse_value();
    skip_ws();
    if (!value.has_value() || pos_ != text_.size()) return std::nullopt;
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<Json> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{': return nested(&Parser::parse_object);
      case '[': return nested(&Parser::parse_array);
      case '"': return parse_string();
      case 't':
        return literal("true") ? std::optional<Json>(Json(true)) : std::nullopt;
      case 'f':
        return literal("false") ? std::optional<Json>(Json(false))
                                : std::nullopt;
      case 'n':
        return literal("null") ? std::optional<Json>(Json()) : std::nullopt;
      default: return parse_number();
    }
  }

  /// Parse one array or object one level deeper; past kMaxNestingDepth
  /// the document is rejected like any other malformed input.
  std::optional<Json> nested(std::optional<Json> (Parser::*parse)()) {
    if (depth_ >= kMaxNestingDepth) return std::nullopt;
    ++depth_;
    std::optional<Json> value = (this->*parse)();
    --depth_;
    return value;
  }

  std::optional<Json> parse_object() {
    if (!consume('{')) return std::nullopt;
    Json value = Json::object();
    if (consume('}')) return value;
    while (true) {
      std::optional<Json> key = parse_string();
      if (!key.has_value() || !consume(':')) return std::nullopt;
      std::optional<Json> member = parse_value();
      if (!member.has_value()) return std::nullopt;
      value.members()[key->as_string()] = *std::move(member);
      if (consume(',')) continue;
      if (consume('}')) return value;
      return std::nullopt;
    }
  }

  std::optional<Json> parse_array() {
    if (!consume('[')) return std::nullopt;
    Json value = Json::array();
    if (consume(']')) return value;
    while (true) {
      std::optional<Json> element = parse_value();
      if (!element.has_value()) return std::nullopt;
      value.push_back(*std::move(element));
      if (consume(',')) continue;
      if (consume(']')) return value;
      return std::nullopt;
    }
  }

  std::optional<Json> parse_string() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9')
                code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code += static_cast<unsigned>(h - 'A' + 10);
              else
                return std::nullopt;
            }
            // Only the control-character escapes we emit need exactness;
            // anything else degrades to '?' (the reports are ASCII).
            c = code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: return std::nullopt;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) return std::nullopt;
    ++pos_;
    return Json(std::move(out));
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return std::nullopt;
    const std::string token(text_.substr(start, pos_ - start));
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size())
        return Json(static_cast<std::int64_t>(v));
      // fall through to double on int64 overflow
    }
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return std::nullopt;
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects currently open
};

}  // namespace

std::string format_double(double v) {
  if (!std::isfinite(v)) return "0.0";  // NaN/inf are not valid JSON
  char buf[40];
  for (const int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  std::string out = buf;
  if (out.find_first_of(".eE") == std::string::npos) out += ".0";
  return out;
}

const Json* Json::get(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

Json& Json::operator[](const std::string& key) {
  if (kind_ != Kind::kObject) *this = object();
  return object_[key];
}

void Json::push_back(Json value) {
  if (kind_ != Kind::kArray) *this = array();
  array_.push_back(std::move(value));
}

bool operator==(const Json& a, const Json& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Json::Kind::kNull: return true;
    case Json::Kind::kBool: return a.bool_ == b.bool_;
    case Json::Kind::kInt: return a.int_ == b.int_;
    case Json::Kind::kDouble: return a.double_ == b.double_;
    case Json::Kind::kString: return a.string_ == b.string_;
    case Json::Kind::kArray: return a.array_ == b.array_;
    case Json::Kind::kObject: return a.object_ == b.object_;
  }
  return false;
}

void Json::dump(std::ostream& out, int indent) const {
  switch (kind_) {
    case Kind::kNull: out << "null"; break;
    case Kind::kBool: out << (bool_ ? "true" : "false"); break;
    case Kind::kInt: out << int_; break;
    case Kind::kDouble: out << format_double(double_); break;
    case Kind::kString: write_escaped(out, string_); break;
    case Kind::kArray: {
      if (array_.empty()) {
        out << "[]";
        break;
      }
      out << "[\n";
      bool first = true;
      for (const Json& item : array_) {
        if (!first) out << ",\n";
        first = false;
        write_indent(out, indent + 1);
        item.dump(out, indent + 1);
      }
      out << '\n';
      write_indent(out, indent);
      out << ']';
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out << "{}";
        break;
      }
      out << "{\n";
      bool first = true;
      for (const auto& [key, member] : object_) {
        if (!first) out << ",\n";
        first = false;
        write_indent(out, indent + 1);
        write_escaped(out, key);
        out << ": ";
        member.dump(out, indent + 1);
      }
      out << '\n';
      write_indent(out, indent);
      out << '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::ostringstream out;
  dump(out, 0);
  out << '\n';
  return out.str();
}

std::optional<Json> Json::parse(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace mebl::report
