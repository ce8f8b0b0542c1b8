#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace bati {

namespace {

/// Deep enough for any document the repo writes (the Chrome trace nests
/// four levels); bounds the recursion of SkipValue on hostile input.
constexpr int kMaxDepth = 64;

Status At(const std::string& what, size_t pos) {
  return Status::InvalidArgument(what + " at position " + std::to_string(pos));
}

bool IsDigit(char c) {
  return c >= '0' && c <= '9';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    const unsigned char byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (byte < 0x20) {
      out.append("\\u00");
      out.push_back(kHex[byte >> 4]);
      out.push_back(kHex[byte & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void JsonObjectWriter::Key(const char* key) {
  if (out_.size() > 1) out_.push_back(',');
  out_.push_back('"');
  out_.append(key);
  out_.append("\":");
}

JsonObjectWriter& JsonObjectWriter::String(const char* key,
                                           std::string_view value) {
  Key(key);
  out_.push_back('"');
  out_.append(JsonEscape(value));
  out_.push_back('"');
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Int(const char* key, int64_t value) {
  Key(key);
  out_.append(std::to_string(value));
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Double(const char* key, double value) {
  Key(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_.append(buf);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Bool(const char* key, bool value) {
  Key(key);
  out_.append(value ? "true" : "false");
  return *this;
}

std::string JsonObjectWriter::Finish() {
  out_.push_back('}');
  return std::move(out_);
}

void JsonCursor::SkipSpace() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r' || text_[pos_] == '\v' || text_[pos_] == '\f')) {
    ++pos_;
  }
}

bool JsonCursor::AtEnd() {
  SkipSpace();
  return pos_ >= text_.size();
}

bool JsonCursor::Consume(char c) {
  SkipSpace();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

char JsonCursor::Peek() {
  SkipSpace();
  return pos_ < text_.size() ? text_[pos_] : '\0';
}

Status JsonCursor::ReadString(std::string* out) {
  if (!Consume('"')) return At("expected '\"'", pos_);
  out->clear();
  while (pos_ < text_.size()) {
    const char ch = text_[pos_++];
    if (ch == '"') return Status::Ok();
    if (static_cast<unsigned char>(ch) < 0x20) {
      return At("raw control byte in string", pos_ - 1);
    }
    if (ch != '\\') {
      out->push_back(ch);
      continue;
    }
    if (pos_ >= text_.size()) break;
    const char esc = text_[pos_++];
    if (esc == '"' || esc == '\\' || esc == '/') {
      out->push_back(esc);
      continue;
    }
    // \u00XX for a control byte: the only \u form JsonEscape() writes.
    if (esc == 'u' && pos_ + 4 <= text_.size() && text_[pos_] == '0' &&
        text_[pos_ + 1] == '0') {
      const int hi = HexValue(text_[pos_ + 2]);
      const int lo = HexValue(text_[pos_ + 3]);
      if (hi >= 0 && lo >= 0 && hi * 16 + lo < 0x20) {
        out->push_back(static_cast<char>(hi * 16 + lo));
        pos_ += 4;
        continue;
      }
    }
    return Status::InvalidArgument(std::string("unsupported escape '\\") +
                                   esc + "' in string");
  }
  return Status::InvalidArgument("unterminated string");
}

Status JsonCursor::ReadNumber(double* out) {
  SkipSpace();
  const size_t start = pos_;
  size_t i = pos_;
  const size_t n = text_.size();
  auto digits = [&] {
    const size_t from = i;
    while (i < n && IsDigit(text_[i])) ++i;
    return i > from;
  };
  if (i < n && text_[i] == '-') ++i;
  bool ok = true;
  if (i < n && text_[i] == '0') {
    ++i;
  } else {
    ok = digits();
  }
  if (ok && i < n && text_[i] == '.') {
    ++i;
    ok = digits();
  }
  if (ok && i < n && (text_[i] == 'e' || text_[i] == 'E')) {
    ++i;
    if (i < n && (text_[i] == '+' || text_[i] == '-')) ++i;
    ok = digits();
  }
  double value = 0.0;
  if (ok) {
    const char* first = text_.data() + start;
    const char* last = text_.data() + i;
    const std::from_chars_result r = std::from_chars(first, last, value);
    ok = r.ec == std::errc() && r.ptr == last && std::isfinite(value);
  }
  if (!ok) return At("malformed number", start);
  pos_ = i;
  *out = value;
  return Status::Ok();
}

Status JsonCursor::ReadBool(bool* out) {
  SkipSpace();
  if (text_.substr(pos_, 4) == "true") {
    pos_ += 4;
    *out = true;
    return Status::Ok();
  }
  if (text_.substr(pos_, 5) == "false") {
    pos_ += 5;
    *out = false;
    return Status::Ok();
  }
  return At("expected true or false", pos_);
}

Status JsonCursor::ReadScalar(JsonField* field) {
  const char ch = Peek();
  field->pos = pos_;
  if (pos_ >= text_.size()) return Status::InvalidArgument("missing value");
  if (ch == '"') {
    field->kind = JsonKind::kString;
    return ReadString(&field->str);
  }
  if (ch == 't' || ch == 'f') {
    field->kind = JsonKind::kBool;
    return ReadBool(&field->boolean);
  }
  if (ch == '{' || ch == '[') {
    return Status::InvalidArgument("nested objects/arrays are not allowed");
  }
  field->kind = JsonKind::kNumber;
  return ReadNumber(&field->num);
}

Status JsonCursor::ReadObject(
    const std::function<Status(std::string& key)>& member) {
  if (!Consume('{')) return At("expected '{'", pos_);
  std::string key;
  bool first = true;
  while (!Consume('}')) {
    if (!first && !Consume(',')) return At("expected ',' or '}'", pos_);
    first = false;
    Status st = ReadString(&key);
    if (!st.ok()) return st;
    if (!Consume(':')) {
      return Status::InvalidArgument("expected ':' after \"" + key + "\"");
    }
    st = member(key);
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

Status JsonCursor::ReadArray(const std::function<Status()>& element) {
  if (!Consume('[')) return At("expected '['", pos_);
  if (Consume(']')) return Status::Ok();
  while (true) {
    const Status st = element();
    if (!st.ok()) return st;
    if (Consume(',')) continue;
    if (Consume(']')) return Status::Ok();
    return At("expected ',' or ']'", pos_);
  }
}

Status JsonCursor::SkipValue() {
  return SkipValue(0);
}

Status JsonCursor::SkipValue(int depth) {
  if (depth >= kMaxDepth) return At("nesting too deep", pos_);
  const char ch = Peek();
  if (ch == '{') {
    return ReadObject([&](std::string&) { return SkipValue(depth + 1); });
  }
  if (ch == '[') return ReadArray([&] { return SkipValue(depth + 1); });
  JsonField scratch;
  return ReadScalar(&scratch);
}

Status ReadFlatObject(std::string_view line, const char* what,
                      std::vector<JsonField>* fields) {
  fields->clear();
  JsonCursor c(line);
  if (c.Peek() != '{') {
    return Status::InvalidArgument(std::string(what) +
                                   " must be a JSON object");
  }
  Status st = c.ReadObject([&](std::string& key) {
    JsonField& field = fields->emplace_back();
    field.key = std::move(key);
    return c.ReadScalar(&field);
  });
  if (!st.ok()) return st;
  if (!c.AtEnd()) {
    return Status::InvalidArgument("trailing characters after object");
  }
  return Status::Ok();
}

namespace {

Status Want(const JsonField& field, const char* kind) {
  return Status::InvalidArgument("\"" + field.key + "\" must be " + kind);
}

Status OutOfRange(const JsonField& field) {
  return Status::InvalidArgument("\"" + field.key + "\" out of range");
}

}  // namespace

Status WantString(const JsonField& field, std::string* out) {
  if (field.kind != JsonKind::kString) return Want(field, "a string");
  *out = field.str;
  return Status::Ok();
}

Status WantBool(const JsonField& field, bool* out) {
  if (field.kind != JsonKind::kBool) return Want(field, "true or false");
  *out = field.boolean;
  return Status::Ok();
}

Status WantNumber(const JsonField& field, double min, double max,
                  double* out) {
  if (field.kind != JsonKind::kNumber) return Want(field, "a number");
  if (field.num < min || field.num > max) return OutOfRange(field);
  *out = field.num;
  return Status::Ok();
}

Status WantInt(const JsonField& field, int64_t min, int64_t max,
               int64_t* out) {
  if (field.kind != JsonKind::kNumber) return Want(field, "a number");
  if (std::trunc(field.num) != field.num) return Want(field, "an integer");
  // 2^63 itself is representable as a double but not as an int64_t.
  if (field.num < static_cast<double>(min) ||
      field.num > static_cast<double>(max) || field.num >= 0x1p63) {
    return OutOfRange(field);
  }
  *out = static_cast<int64_t>(field.num);
  return Status::Ok();
}

}  // namespace bati
