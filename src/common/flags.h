#ifndef BATI_COMMON_FLAGS_H_
#define BATI_COMMON_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"

namespace bati {

/// Strict numeric flag parsing: the whole token must parse — no silent
/// atoll-style truncation to 0. Prints a clear error to stderr and returns
/// false otherwise. `flag` names the flag in the error message. Doubles
/// must be finite: "nan" and "inf" are rejected, so they never slip past a
/// bound check (every comparison with NaN is false).
bool ParseInt64Flag(const char* flag, const char* v, int64_t* out);
bool ParseUint64Flag(const char* flag, const char* v, uint64_t* out);
bool ParseDoubleFlag(const char* flag, const char* v, double* out);
/// ParseDoubleFlag restricted to [0, 1].
bool ParseRateFlag(const char* flag, const char* v, double* out);

/// The strict flag table shared by bati_tune, bati_export, and bati_batch:
/// register every flag against its output location, then Parse(). All
/// three tools validate identically — an unknown flag, a missing or
/// malformed value, or a bound violation prints one clear line to stderr
/// and makes Parse() return false, which the tools turn into usage + exit
/// code 2.
///
/// Accepted syntax for valued flags: `--flag VALUE` and `--flag=VALUE`.
/// Boolean flags take no value (`--flag=X` on one is an error), except
/// optional-value flags registered with AddOptionalValue (the
/// `--metrics[=FILE]` shape).
class FlagParser {
 public:
  /// Registers `--name` taking a string value.
  void AddString(const std::string& name, std::string* out);

  /// Registers `--name` as a presence switch: seeing it sets *out = true.
  void AddBool(const std::string& name, bool* out);

  /// Registers `--name` taking a strictly parsed integer >= `min`.
  void AddInt64(const std::string& name, int64_t* out,
                int64_t min = INT64_MIN);

  /// Registers `--name` taking a strictly parsed non-negative integer.
  void AddUint64(const std::string& name, uint64_t* out);

  /// Registers `--name` taking a strictly parsed double >= `min`.
  void AddDouble(const std::string& name, double* out, double min = -1e300);

  /// Registers `--name` taking a rate in [0, 1].
  void AddRate(const std::string& name, double* out);

  /// Registers `--name[=VALUE]`: bare presence sets *flag; the `=VALUE`
  /// form additionally stores the (non-empty) value.
  void AddOptionalValue(const std::string& name, bool* flag,
                        std::string* value);

  /// Registers `--name` as the spec-line key `name` spelled with '_' for
  /// '-' (`--fault-rate` is the key "fault_rate"). Each occurrence appends
  /// one JsonField of `kind` to *out, in command-line order: a kBool flag
  /// takes no value and appends true, a kNumber value must be a JSON
  /// number, and a kString value is taken verbatim. Bounds are left to
  /// whoever reads the fields.
  void AddField(const std::string& name, JsonKind kind,
                std::vector<JsonField>* out);

  /// Parses argv[1..argc). Returns false after printing a one-line error
  /// on any violation. `--help` / `-h` also return false (the caller
  /// prints usage either way) with *help set when provided.
  bool Parse(int argc, char** argv, bool* help = nullptr) const;

 private:
  enum class Kind { kString, kBool, kInt64, kUint64, kDouble, kRate,
                    kOptionalValue, kField };
  struct Flag {
    std::string name;  // with the leading "--"
    Kind kind = Kind::kString;
    std::string* str = nullptr;
    bool* boolean = nullptr;
    int64_t* i64 = nullptr;
    uint64_t* u64 = nullptr;
    double* dbl = nullptr;
    int64_t min_i64 = INT64_MIN;
    double min_dbl = -1e300;
    std::string key;  // kField: the spec-line key
    JsonKind field_kind = JsonKind::kString;
    std::vector<JsonField>* fields = nullptr;
  };

  const Flag* Find(const std::string& name) const;
  static bool Apply(const Flag& flag, const char* value);

  std::vector<Flag> flags_;
};

}  // namespace bati

#endif  // BATI_COMMON_FLAGS_H_
