#include "common/flags.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/macros.h"

namespace bati {

bool ParseInt64Flag(const char* flag, const char* v, int64_t* out) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (*v == '\0' || errno != 0 || end == nullptr || *end != '\0') {
    std::fprintf(stderr, "invalid integer for %s: '%s'\n", flag, v);
    return false;
  }
  *out = parsed;
  return true;
}

bool ParseUint64Flag(const char* flag, const char* v, uint64_t* out) {
  int64_t parsed = 0;
  if (!ParseInt64Flag(flag, v, &parsed) || parsed < 0) {
    if (parsed < 0) {
      std::fprintf(stderr, "%s must be non-negative, got '%s'\n", flag, v);
    }
    return false;
  }
  *out = static_cast<uint64_t>(parsed);
  return true;
}

bool ParseDoubleFlag(const char* flag, const char* v, double* out) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (*v == '\0' || errno != 0 || end == nullptr || *end != '\0' ||
      !std::isfinite(parsed)) {
    std::fprintf(stderr, "invalid number for %s: '%s'\n", flag, v);
    return false;
  }
  *out = parsed;
  return true;
}

bool ParseRateFlag(const char* flag, const char* v, double* out) {
  if (!ParseDoubleFlag(flag, v, out)) return false;
  if (*out < 0.0 || *out > 1.0) {
    std::fprintf(stderr, "%s must be in [0, 1], got '%s'\n", flag, v);
    return false;
  }
  return true;
}

void FlagParser::AddString(const std::string& name, std::string* out) {
  Flag flag;
  flag.name = "--" + name;
  flag.kind = Kind::kString;
  flag.str = out;
  flags_.push_back(flag);
}

void FlagParser::AddBool(const std::string& name, bool* out) {
  Flag flag;
  flag.name = "--" + name;
  flag.kind = Kind::kBool;
  flag.boolean = out;
  flags_.push_back(flag);
}

void FlagParser::AddInt64(const std::string& name, int64_t* out,
                          int64_t min) {
  Flag flag;
  flag.name = "--" + name;
  flag.kind = Kind::kInt64;
  flag.i64 = out;
  flag.min_i64 = min;
  flags_.push_back(flag);
}

void FlagParser::AddUint64(const std::string& name, uint64_t* out) {
  Flag flag;
  flag.name = "--" + name;
  flag.kind = Kind::kUint64;
  flag.u64 = out;
  flags_.push_back(flag);
}

void FlagParser::AddDouble(const std::string& name, double* out,
                           double min) {
  Flag flag;
  flag.name = "--" + name;
  flag.kind = Kind::kDouble;
  flag.dbl = out;
  flag.min_dbl = min;
  flags_.push_back(flag);
}

void FlagParser::AddRate(const std::string& name, double* out) {
  Flag flag;
  flag.name = "--" + name;
  flag.kind = Kind::kRate;
  flag.dbl = out;
  flags_.push_back(flag);
}

void FlagParser::AddOptionalValue(const std::string& name, bool* flag_out,
                                  std::string* value) {
  Flag flag;
  flag.name = "--" + name;
  flag.kind = Kind::kOptionalValue;
  flag.boolean = flag_out;
  flag.str = value;
  flags_.push_back(flag);
}

void FlagParser::AddField(const std::string& name, JsonKind kind,
                          std::vector<JsonField>* out) {
  Flag flag;
  flag.name = "--" + name;
  flag.kind = Kind::kField;
  flag.key = name;
  std::replace(flag.key.begin(), flag.key.end(), '-', '_');
  flag.field_kind = kind;
  flag.fields = out;
  flags_.push_back(flag);
}

const FlagParser::Flag* FlagParser::Find(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

bool FlagParser::Apply(const Flag& flag, const char* value) {
  const char* name = flag.name.c_str();
  switch (flag.kind) {
    case Kind::kString:
      *flag.str = value;
      return true;
    case Kind::kInt64:
      if (!ParseInt64Flag(name, value, flag.i64)) return false;
      if (*flag.i64 < flag.min_i64) {
        std::fprintf(stderr, "%s must be >= %lld, got '%s'\n", name,
                     static_cast<long long>(flag.min_i64), value);
        return false;
      }
      return true;
    case Kind::kUint64:
      return ParseUint64Flag(name, value, flag.u64);
    case Kind::kDouble:
      if (!ParseDoubleFlag(name, value, flag.dbl)) return false;
      if (*flag.dbl < flag.min_dbl) {
        std::fprintf(stderr, "%s must be >= %g, got '%s'\n", name,
                     flag.min_dbl, value);
        return false;
      }
      return true;
    case Kind::kRate:
      return ParseRateFlag(name, value, flag.dbl);
    case Kind::kOptionalValue:
      *flag.boolean = true;
      if (*value == '\0') {
        std::fprintf(stderr, "missing file name in %s=FILE\n", name);
        return false;
      }
      *flag.str = value;
      return true;
    case Kind::kField: {
      JsonField field;
      field.kind = flag.field_kind;
      if (field.kind == JsonKind::kBool) {
        field.boolean = true;  // a switch, like kBool
      } else if (field.kind == JsonKind::kString) {
        field.str = value;
      } else {
        JsonCursor cursor(value);
        if (!cursor.ReadScalar(&field).ok() ||
            field.kind != JsonKind::kNumber || !cursor.AtEnd()) {
          std::fprintf(stderr, "invalid number for %s: '%s'\n", name, value);
          return false;
        }
      }
      field.key = flag.key;
      flag.fields->push_back(std::move(field));
      return true;
    }
    case Kind::kBool:
      *flag.boolean = true;  // Parse() passes no value
      return true;
  }
  BATI_CHECK(false && "unhandled flag kind");
  return false;
}

bool FlagParser::Parse(int argc, char** argv, bool* help) const {
  if (help != nullptr) *help = false;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      if (help != nullptr) *help = true;
      return false;
    }
    // Split --flag=value; the flag table decides whether '=' is allowed.
    const size_t eq = token.find('=');
    const std::string name = eq == std::string::npos ? token
                                                     : token.substr(0, eq);
    const Flag* flag = Find(name);
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag: %s\n", name.c_str());
      return false;
    }
    if (flag->kind == Kind::kBool ||
        (flag->kind == Kind::kField &&
         flag->field_kind == JsonKind::kBool)) {
      if (eq != std::string::npos) {
        std::fprintf(stderr, "%s takes no value\n", name.c_str());
        return false;
      }
      Apply(*flag, "");
      continue;
    }
    if (flag->kind == Kind::kOptionalValue) {
      *flag->boolean = true;
      if (eq == std::string::npos) continue;  // bare --flag form
      if (!Apply(*flag, token.c_str() + eq + 1)) return false;
      continue;
    }
    const char* value = nullptr;
    if (eq != std::string::npos) {
      value = token.c_str() + eq + 1;
    } else {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (!Apply(*flag, value)) return false;
  }
  return true;
}

}  // namespace bati
