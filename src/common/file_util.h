#ifndef BATI_COMMON_FILE_UTIL_H_
#define BATI_COMMON_FILE_UTIL_H_

#include <string>

#include "common/status.h"

namespace bati {

/// Writes `contents` to `path` crash-consistently: the bytes go to a
/// temporary sibling file (`path` + ".tmp") which is flushed, synced, and
/// atomically renamed over `path`. A reader therefore observes either the
/// previous complete file or the new complete file — never a truncated
/// mixture — even if the process dies mid-write. Shared by the checkpoint
/// writer and the layout-CSV exporter.
Status AtomicWriteFile(const std::string& path, const std::string& contents);

/// Reads a whole file into a string. NotFound when it cannot be opened,
/// Internal on a read error.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace bati

#endif  // BATI_COMMON_FILE_UTIL_H_
