// A minimal JSON document model and recursive-descent parser.
//
// The observability layer both *writes* JSON (metric sidecars, Chrome
// traces) and *reads it back*: the trace exporter round-trip test, the
// spans re-importer, tools/bench_diff and tools/obs_replay all need to
// parse documents this repo produced — the last of these over arbitrary
// rule/label strings recovered from black-box segments. A full JSON
// library is not warranted (and the container bakes in no third-party
// deps); this covers RFC 8259 including \uXXXX escapes: code points
// decode to UTF-8, surrogate pairs combine, and a lone surrogate half is
// a parse error.

#ifndef DBM_COMMON_JSON_H_
#define DBM_COMMON_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace dbm {

/// A parsed JSON value. Object member order is preserved (useful for
/// stable diffs); duplicate keys keep their last occurrence on lookup.
struct JsonValue {
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool IsNull() const { return kind == Kind::kNull; }
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsObject() const { return kind == Kind::kObject; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  double NumberOr(double fallback) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  std::string StringOr(std::string fallback) const {
    return kind == Kind::kString ? str : std::move(fallback);
  }
};

/// Parses one JSON document (leading/trailing whitespace allowed; trailing
/// garbage is an error).
Result<JsonValue> ParseJson(std::string_view text);

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters). Shared by every JSON emitter here.
std::string JsonEscape(std::string_view s);

/// Renders a double the way every JSON emitter here does: "%.6g".
/// %.17g round-trips doubles but makes the sidecars unreadable; six
/// significant digits are plenty for metric values. JSON has no NaN or
/// infinity, so a non-finite value renders as null.
std::string JsonNumber(double v);

}  // namespace dbm

#endif  // DBM_COMMON_JSON_H_
