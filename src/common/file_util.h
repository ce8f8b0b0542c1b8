#ifndef BATI_COMMON_FILE_UTIL_H_
#define BATI_COMMON_FILE_UTIL_H_

#include <string>

#include "common/status.h"

namespace bati {

/// Writes `contents` to `path` crash-consistently: the bytes go to a
/// temporary sibling file (`path` + ".tmp.<pid>.<n>", unique per write)
/// which is flushed, synced, and atomically renamed over `path`. A reader
/// therefore observes either the previous complete file or the new
/// complete file — never a truncated mixture — even if the process dies
/// mid-write, and even when several processes or threads write the same
/// path at once. Shared by the checkpoint writer and the layout-CSV
/// exporter.
Status AtomicWriteFile(const std::string& path, const std::string& contents);

/// Removes the temporary siblings AtomicWriteFile leaves behind for `path`
/// when a writer dies between creating and renaming one. Call only once no
/// writer of `path` can still be running.
void RemoveAtomicWriteTemps(const std::string& path);

/// Reads a whole file into a string. NotFound when it cannot be opened,
/// Internal on a read error.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace bati

#endif  // BATI_COMMON_FILE_UTIL_H_
