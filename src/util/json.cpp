#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace dnnlife::util {

namespace {

[[noreturn]] void fail_at(std::size_t offset, const std::string& what) {
  throw std::invalid_argument("JSON error at offset " +
                              std::to_string(offset) + ": " + what);
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail_at(pos_, "trailing characters");
    return value;
  }

 private:
  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail_at(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail_at(pos_, std::string("expected '") + c + "', got '" + text_[pos_] +
                        "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string_value();
      case 't':
      case 'f':
      case 'n': return parse_keyword();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue value;
    value.type_ = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      if (peek() != '"') fail_at(pos_, "expected a quoted member name");
      std::string key = parse_string_literal();
      for (const auto& [existing, _] : value.members_)
        if (existing == key) fail_at(pos_, "duplicate member '" + key + "'");
      expect(':');
      value.members_.emplace_back(std::move(key), parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue value;
    value.type_ = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.items_.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  JsonValue parse_string_value() {
    JsonValue value;
    value.type_ = JsonValue::Type::kString;
    value.string_ = parse_string_literal();
    return value;
  }

  std::string parse_string_literal() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail_at(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail_at(pos_, "unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail_at(pos_, "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail_at(pos_ - 1, "bad \\u escape digit");
          }
          // UTF-8 encode the BMP code point (the scenario subset has no
          // need for surrogate pairs).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: fail_at(pos_ - 1, "unknown escape");
      }
    }
  }

  JsonValue parse_keyword() {
    JsonValue value;
    if (consume_literal("true")) {
      value.type_ = JsonValue::Type::kBool;
      value.bool_ = true;
    } else if (consume_literal("false")) {
      value.type_ = JsonValue::Type::kBool;
      value.bool_ = false;
    } else if (consume_literal("null")) {
      value.type_ = JsonValue::Type::kNull;
    } else {
      fail_at(pos_, "unexpected token");
    }
    return value;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    double number = 0.0;
    const auto result =
        std::from_chars(text_.data() + start, text_.data() + pos_, number);
    if (result.ec != std::errc{} || result.ptr != text_.data() + pos_ ||
        start == pos_)
      fail_at(start, "malformed number");
    JsonValue value;
    value.type_ = JsonValue::Type::kNumber;
    value.number_ = number;
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).run();
}

JsonValue JsonValue::make_bool(bool value) {
  JsonValue out;
  out.type_ = Type::kBool;
  out.bool_ = value;
  return out;
}

JsonValue JsonValue::make_number(double value) {
  JsonValue out;
  out.type_ = Type::kNumber;
  out.number_ = value;
  return out;
}

JsonValue JsonValue::make_string(std::string value) {
  JsonValue out;
  out.type_ = Type::kString;
  out.string_ = std::move(value);
  return out;
}

JsonValue JsonValue::make_array() {
  JsonValue out;
  out.type_ = Type::kArray;
  return out;
}

JsonValue JsonValue::make_object() {
  JsonValue out;
  out.type_ = Type::kObject;
  return out;
}

std::string_view JsonValue::type_name(Type type) noexcept {
  switch (type) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "unknown";
}

namespace {

[[noreturn]] void type_mismatch(JsonValue::Type want, JsonValue::Type got) {
  throw std::invalid_argument("JSON type mismatch: expected " +
                              std::string(JsonValue::type_name(want)) +
                              ", got " +
                              std::string(JsonValue::type_name(got)));
}

}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_mismatch(Type::kBool, type_);
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) type_mismatch(Type::kNumber, type_);
  return number_;
}

double JsonValue::as_number_in(double lo, double hi,
                               std::string_view what) const {
  const double number = as_number();
  if (!(number >= lo && number <= hi))
    throw std::invalid_argument(std::string(what) + " " +
                                std::to_string(number) + " out of [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  return number;
}

std::uint64_t JsonValue::as_uint() const {
  const double number = as_number();
  if (number < 0.0 || std::floor(number) != number ||
      number > 18446744073709549568.0)
    throw std::invalid_argument("JSON number " + std::to_string(number) +
                                " is not a non-negative integer");
  return static_cast<std::uint64_t>(number);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_mismatch(Type::kString, type_);
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) type_mismatch(Type::kArray, type_);
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (type_ != Type::kObject) type_mismatch(Type::kObject, type_);
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [name, value] : members())
    if (name == key) return &value;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr)
    throw std::invalid_argument("missing JSON member '" + std::string(key) +
                                "'");
  return *value;
}

void JsonValue::set(std::string key, JsonValue value) {
  if (type_ != Type::kObject) type_mismatch(Type::kObject, type_);
  for (auto& [name, existing] : members_)
    if (name == key) {
      existing = std::move(value);
      return;
    }
  members_.emplace_back(std::move(key), std::move(value));
}

JsonValue* JsonValue::find_mutable(std::string_view key) {
  if (type_ != Type::kObject) type_mismatch(Type::kObject, type_);
  for (auto& [name, value] : members_)
    if (name == key) return &value;
  return nullptr;
}

void JsonValue::push_back(JsonValue element) {
  if (type_ != Type::kArray) type_mismatch(Type::kArray, type_);
  items_.push_back(std::move(element));
}

std::vector<JsonValue>& JsonValue::mutable_items() {
  if (type_ != Type::kArray) type_mismatch(Type::kArray, type_);
  return items_;
}

void check_members(const JsonValue& object, const char* where,
                   std::initializer_list<std::string_view> known) {
  for (const auto& [name, _] : object.members())
    if (std::find(known.begin(), known.end(), name) == known.end())
      throw std::invalid_argument("unknown member '" + name + "' in " + where);
}

}  // namespace dnnlife::util
