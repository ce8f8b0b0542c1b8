#ifndef BATI_COMMON_JSON_H_
#define BATI_COMMON_JSON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace bati {

// The one JSON module behind every JSON line the tools read or write: the
// bati_batch spec lines, the serve event stream, the result and error lines
// and the tracer's Chrome trace validator.
//
// The grammar is strict and symmetric with the writer. Strings accept
// exactly the escapes JsonEscape() emits — \" \\ \/ and \u0000..\u001f —
// and reject a raw control byte, so accept -> serialize -> parse is a fixed
// point. Numbers follow the JSON grammar (no hex, inf, nan, leading '+' or
// '.'), and a number that overflows a double is rejected.

/// Escapes `text` for the inside of a JSON string: `"` and `\` get a
/// backslash and every byte below 0x20 becomes `\u00XX`. All other bytes
/// pass through unchanged.
std::string JsonEscape(std::string_view text);

/// Builds one flat JSON object left to right: `{"k":v,...}`. Keys are
/// written as given (they are program constants); string values go
/// through JsonEscape().
class JsonObjectWriter {
 public:
  JsonObjectWriter& String(const char* key, std::string_view value);
  JsonObjectWriter& Int(const char* key, int64_t value);
  /// "%.17g": parses back to the identical double.
  JsonObjectWriter& Double(const char* key, double value);
  JsonObjectWriter& Bool(const char* key, bool value);
  /// Closes the object and returns it; the writer is spent afterwards.
  std::string Finish();

 private:
  void Key(const char* key);

  std::string out_ = "{";
};

enum class JsonKind { kString, kNumber, kBool };

/// One member of a flat object: its key, the kind and decoded value, and
/// the byte offset of the value in the line.
struct JsonField {
  std::string key;
  JsonKind kind = JsonKind::kString;
  std::string str;       ///< kString
  double num = 0.0;      ///< kNumber
  bool boolean = false;  ///< kBool
  size_t pos = 0;
};

/// A cursor over one JSON text, which must outlive it. Every reader skips
/// leading whitespace and reports errors as InvalidArgument naming the byte
/// position.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  /// True once only whitespace remains.
  bool AtEnd();
  /// Consumes `c` if it is the next non-space byte.
  bool Consume(char c);
  /// The next non-space byte, or '\0' at the end.
  char Peek();

  Status ReadString(std::string* out);
  /// Reads a string, number or boolean into `field` (kind, value, pos);
  /// a nested object or array is an error.
  Status ReadScalar(JsonField* field);
  /// Skips one value of any kind, nested objects and arrays included.
  Status SkipValue();
  /// Reads `{"key":value,...}`. For each member it reads the key and the
  /// ':' and then calls `member(key)`, which must consume the value.
  Status ReadObject(const std::function<Status(std::string& key)>& member);
  /// Reads `[value,...]`, calling `element()` to consume each value.
  Status ReadArray(const std::function<Status()>& element);

 private:
  void SkipSpace();
  Status ReadNumber(double* out);
  Status ReadBool(bool* out);
  Status SkipValue(int depth);

  std::string_view text_;
  size_t pos_ = 0;
};

/// Reads one flat JSON object — string, number and boolean values only —
/// with nothing but whitespace after it. `what` names the line in the
/// "must be a JSON object" error ("spec line", "event line").
Status ReadFlatObject(std::string_view line, const char* what,
                      std::vector<JsonField>* fields);

/// Typed accessors. Each checks the kind first and then the range, with
/// errors naming the key: "must be a string", "must be a number", "must be
/// an integer", "must be true or false", "out of range".
Status WantString(const JsonField& field, std::string* out);
Status WantBool(const JsonField& field, bool* out);
Status WantNumber(const JsonField& field, double min, double max,
                  double* out);
/// Checks, in order, that the value is a number, that it is an integer and
/// that it lies in [min, max].
Status WantInt(const JsonField& field, int64_t min, int64_t max,
               int64_t* out);

}  // namespace bati

#endif  // BATI_COMMON_JSON_H_
