#include "common/durable.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/crc32.h"

namespace bati {

namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
         c == '\f';
}

Status Bad(const std::string& what) {
  return Status::InvalidArgument(what);
}

}  // namespace

std::string SealDurable(std::string_view magic, std::string_view body) {
  std::string out;
  out.reserve(magic.size() + 32 + body.size());
  out.append(magic);
  out.append("\nchecksum ");
  out.append(Crc32Hex(Crc32(body.data(), body.size())));
  out.push_back(' ');
  out.append(std::to_string(body.size()));
  out.push_back('\n');
  out.append(body);
  return out;
}

StatusOr<std::string> OpenDurable(std::string_view text,
                                  std::string_view magic) {
  const size_t magic_end = text.find('\n');
  if (magic_end == std::string_view::npos) {
    return Bad("missing or unsupported header");
  }
  const std::string_view found = text.substr(0, magic_end);
  if (found != magic) {
    // "<name> v<N>": the same name at another version gets a clear
    // message instead of a generic header error.
    const size_t space = magic.rfind(' ');
    if (space != std::string_view::npos &&
        found.substr(0, space + 1) == magic.substr(0, space + 1) &&
        found.size() > space + 1 && found[space + 1] == 'v') {
      return Bad("unsupported version " +
                 std::string(found.substr(space + 1)) + " (expected " +
                 std::string(magic.substr(space + 1)) +
                 "); re-run to write a fresh file");
    }
    return Bad("missing or unsupported header");
  }
  const size_t checksum_end = text.find('\n', magic_end + 1);
  if (checksum_end == std::string_view::npos) {
    return Bad("truncated before checksum line");
  }
  const std::vector<std::string> toks =
      SplitTokens(text.substr(magic_end + 1, checksum_end - magic_end - 1));
  uint64_t declared_size = 0;
  if (toks.size() != 3 || toks[0] != "checksum" ||
      !ParseU64(toks[2], &declared_size)) {
    return Bad("bad checksum line");
  }
  const std::string_view body = text.substr(checksum_end + 1);
  if (body.size() != declared_size) {
    return Bad("body size mismatch (truncated or padded file)");
  }
  // Compared as text, so an upper-case rendering of the right value (one
  // flipped bit away from the written lower-case one) is rejected too.
  if (toks[1] != Crc32Hex(Crc32(body.data(), body.size()))) {
    return Bad("checksum mismatch (corrupted file)");
  }
  return std::string(body);
}

void AppendHexDouble(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", value);
  out->append(buf);
}

bool ParseHexDouble(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool ParseI64(const std::string& token, int64_t* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseU64(const std::string& token, uint64_t* out) {
  if (token.empty() || token[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

std::vector<std::string> SplitTokens(std::string_view line) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && IsSpace(line[i])) ++i;
    const size_t start = i;
    while (i < line.size() && !IsSpace(line[i])) ++i;
    if (i > start) out.emplace_back(line.substr(start, i - start));
  }
  return out;
}

}  // namespace bati
