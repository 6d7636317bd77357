// Minimal JSON value tree for the declarative scenario layer.
//
// Parses the JSON subset the framework's own specs use — objects, arrays,
// strings (with the standard escapes), numbers, booleans and null — into a
// value tree. Strict: trailing garbage, unterminated literals and
// malformed numbers throw std::invalid_argument with the character offset.
// Deliberately tiny (no external dependency, no comments); object members
// keep their textual order and are accessed linearly, which is plenty for
// hand-written scenario files.
//
// The scenario generator also *builds* documents: the make_* factories and
// set/push_back mutators grow a tree that util/json_writer.hpp serialises
// deterministically (write → parse round-trips the tree exactly).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dnnlife::util {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parse one complete JSON document.
  static JsonValue parse(std::string_view text);

  /// Builder factories for programmatically constructed documents.
  static JsonValue make_null() noexcept { return JsonValue(); }
  static JsonValue make_bool(bool value);
  static JsonValue make_number(double value);
  static JsonValue make_string(std::string value);
  static JsonValue make_array();
  static JsonValue make_object();

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Typed accessors; throw std::invalid_argument on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  /// as_number checked against an inclusive range; the error message names
  /// `what` and the violated bound (spec parsers reject out-of-range
  /// values at the document, not mid-run).
  double as_number_in(double lo, double hi, std::string_view what) const;
  /// as_number checked to be a non-negative integer that fits the type.
  std::uint64_t as_uint() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;  ///< array elements
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member lookup: find returns nullptr when absent; at throws.
  const JsonValue* find(std::string_view key) const;
  const JsonValue& at(std::string_view key) const;

  /// Mutators (builder side). All throw std::invalid_argument when called
  /// on the wrong type, like the typed accessors.
  /// Set an object member: replaces the value in place when the key exists
  /// (member order is preserved), appends otherwise.
  void set(std::string key, JsonValue value);
  /// Mutable object member lookup; nullptr when absent.
  JsonValue* find_mutable(std::string_view key);
  /// Append an array element.
  void push_back(JsonValue element);
  /// Mutable array elements, for in-place rewrites of nested documents.
  std::vector<JsonValue>& mutable_items();

  /// Human-readable type name ("object", "number", ...) for messages.
  static std::string_view type_name(Type type) noexcept;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  friend class JsonParser;
};

/// Reject members of `object` not named in `known`, so typos fail loudly
/// instead of silently running defaults ("unknown member 'x' in <where>").
void check_members(const JsonValue& object, const char* where,
                   std::initializer_list<std::string_view> known);

}  // namespace dnnlife::util
