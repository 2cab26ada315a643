#ifndef RPQI_SERVICE_JSON_H_
#define RPQI_SERVICE_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"

namespace rpqi {
namespace service {

/// Minimal JSON value for the NDJSON serve protocol (src/service/server.h).
/// Self-contained on purpose: the container bakes in no JSON library, and the
/// protocol needs only the scalar types below plus arrays and objects.
///
/// Objects preserve insertion order (a vector of pairs, not a map) so
/// responses render with stable field order; lookups are linear, which is
/// fine at protocol-object sizes.
class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  enum class Type {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
    kRaw,
  };

  Json() : type_(Type::kNull) {}

  static Json Null() { return Json(); }
  static Json Bool(bool value) {
    Json j;
    j.type_ = Type::kBool;
    j.bool_ = value;
    return j;
  }
  static Json Int(int64_t value) {
    Json j;
    j.type_ = Type::kInt;
    j.int_ = value;
    return j;
  }
  static Json Double(double value) {
    Json j;
    j.type_ = Type::kDouble;
    j.double_ = value;
    return j;
  }
  static Json Str(std::string value) {
    Json j;
    j.type_ = Type::kString;
    j.string_ = std::move(value);
    return j;
  }
  static Json Arr(JsonArray value) {
    Json j;
    j.type_ = Type::kArray;
    j.array_ = std::move(value);
    return j;
  }
  static Json Obj(JsonObject value) {
    Json j;
    j.type_ = Type::kObject;
    j.object_ = std::move(value);
    return j;
  }
  /// Pre-rendered JSON text that DumpTo appends verbatim, so a response can
  /// splice in bytes rendered once and cached. `text` must hold exactly one
  /// JSON value; sharing it keeps its owner (a cached plan) alive as long as
  /// the value. ParseJson never produces one.
  static Json Raw(std::shared_ptr<const std::string> text) {
    Json j;
    j.type_ = Type::kRaw;
    j.raw_ = std::move(text);
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  int64_t int_value() const { return int_; }
  double double_value() const {
    return type_ == Type::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& string_value() const { return string_; }
  const JsonArray& array() const { return array_; }
  const JsonObject& object() const { return object_; }

  /// Object member lookup; nullptr when `this` is not an object or the key is
  /// absent. First occurrence wins on (malformed) duplicate keys.
  const Json* Find(std::string_view key) const {
    if (type_ != Type::kObject) return nullptr;
    for (const auto& [name, value] : object_) {
      if (name == key) return &value;
    }
    return nullptr;
  }

  /// Compact single-line rendering (no spaces), suitable for NDJSON.
  std::string Dump() const;
  void DumpTo(std::string* out) const;

 private:
  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
  std::shared_ptr<const std::string> raw_;
};

/// Appends `text` JSON-escaped (quotes, backslash, control characters) to
/// `out`, without surrounding quotes.
void JsonEscapeTo(std::string_view text, std::string* out);

/// Strict single-document parse: exactly one JSON value plus trailing
/// whitespace. Numbers without '.', 'e', 'E' that fit an int64 parse as kInt,
/// everything else as kDouble. Nesting is capped (64) so adversarial input
/// cannot blow the stack.
StatusOr<Json> ParseJson(std::string_view text);

}  // namespace service
}  // namespace rpqi

#endif  // RPQI_SERVICE_JSON_H_
