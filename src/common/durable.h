#ifndef BATI_COMMON_DURABLE_H_
#define BATI_COMMON_DURABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace bati {

// The envelope of every file the system resumes from — the what-if
// journal, the serve checkpoint and the fleet state:
//
//   <name> v<N>
//   checksum <crc32 as %08x> <body bytes>
//   <body>
//
// The checksum line guards the whole body by length and CRC-32, so a
// truncated, padded or bit-flipped file is rejected with a Status instead
// of resuming a silently different state. Files are written through
// AtomicWriteFile, so a crash mid-write leaves the previous file intact.

/// Wraps `body` in the envelope headed by `magic` ("bati-serve v3").
std::string SealDurable(std::string_view magic, std::string_view body);

/// Checks the envelope and returns its body. Errors are InvalidArgument
/// with a bare reason ("checksum mismatch (corrupted file)") for the caller
/// to prefix. A file of the same name at another version is reported as
/// "unsupported version vN (expected vM)".
StatusOr<std::string> OpenDurable(std::string_view text,
                                  std::string_view magic);

// Text-record helpers shared by the durable formats' bodies.

/// "%a" formatting: parses back bit-exactly through ParseHexDouble, which
/// is what makes text checkpoints resumable without drift.
void AppendHexDouble(std::string* out, double value);
bool ParseHexDouble(const std::string& token, double* out);

/// Strict decimal parses: the whole token must be the number, and an
/// out-of-range value fails instead of clamping. ParseU64 rejects a sign.
bool ParseI64(const std::string& token, int64_t* out);
bool ParseU64(const std::string& token, uint64_t* out);

/// Splits a line on ASCII whitespace, dropping empty tokens.
std::vector<std::string> SplitTokens(std::string_view line);

}  // namespace bati

#endif  // BATI_COMMON_DURABLE_H_
