#include "common/file_util.h"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define BATI_HAVE_FSYNC 1
#endif

namespace bati {

namespace {

#ifdef BATI_HAVE_FSYNC
/// Syncs the directory containing `path`, making the rename itself — not
/// just the file's bytes — durable. Without this, a crash immediately after
/// rename(2) can lose the directory entry: the data blocks are on disk but
/// the name still points at the old file (or nothing).
bool SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = fsync(fd) == 0;
  close(fd);
  return ok;
}
#endif

}  // namespace

Status AtomicWriteFile(const std::string& path, const std::string& contents) {
  // Each write gets its own temporary name, so concurrent writers of one
  // path (two processes, or two threads) never rename each other's
  // half-written bytes: the last rename wins with a complete file.
  static std::atomic<uint64_t> next_write{0};
#ifdef BATI_HAVE_FSYNC
  const long pid = static_cast<long>(getpid());
#else
  const long pid = 0;
#endif
  const std::string tmp = path + ".tmp." + std::to_string(pid) + "." +
                          std::to_string(next_write.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::NotFound("cannot open file for write: " + tmp + " (" +
                            std::strerror(errno) + ")");
  }
  bool ok = contents.empty() ||
            std::fwrite(contents.data(), 1, contents.size(), f) ==
                contents.size();
  ok = std::fflush(f) == 0 && ok;
#ifdef BATI_HAVE_FSYNC
  // Make the rename durable: without the fsync a crash shortly after the
  // rename could surface an empty (not merely stale) file on some
  // filesystems.
  ok = fsync(fileno(f)) == 0 && ok;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Internal("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename failed: " + tmp + " -> " + path + " (" +
                            std::strerror(errno) + ")");
  }
#ifdef BATI_HAVE_FSYNC
  if (!SyncParentDir(path)) {
    return Status::Internal("directory fsync failed after rename: " + path);
  }
#endif
  return Status::Ok();
}

void RemoveAtomicWriteTemps(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp.";
  std::error_code ec;
  const std::filesystem::path dir =
      target.has_parent_path() ? target.parent_path()
                               : std::filesystem::path(".");
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().filename().string().rfind(prefix, 0) == 0) {
      std::filesystem::remove(it->path(), ec);
    }
  }
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open file: " + path);
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Internal("error reading file: " + path);
  return text;
}

}  // namespace bati
