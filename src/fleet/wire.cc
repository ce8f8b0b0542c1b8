#include "fleet/wire.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/crc32.h"
#include "common/durable.h"

namespace bati {

namespace {

constexpr char kStateMagic[] = "bati-fleet-state v2";

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed frame: ") + what);
}

/// Strictly parses a non-negative integer token in [start, end).
bool ParseU64Range(const std::string& s, size_t start, size_t end,
                   uint64_t* out) {
  if (start >= end) return false;
  uint64_t value = 0;
  for (size_t i = start; i < end; ++i) {
    const char c = s[i];
    if (c < '0' || c > '9') return false;
    if (value > (UINT64_MAX - static_cast<uint64_t>(c - '0')) / 10) {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

/// Advances past one space-terminated token; returns (start, end) or false.
bool NextToken(const std::string& s, size_t* pos, size_t* start,
               size_t* end) {
  if (*pos >= s.size()) return false;
  *start = *pos;
  const size_t space = s.find(' ', *pos);
  *end = space == std::string::npos ? s.size() : space;
  *pos = space == std::string::npos ? s.size() : space + 1;
  return *end > *start;
}

}  // namespace

std::string EncodeTaskLine(const TaskFrame& frame) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "TASK %" PRIu64 " %d %d ", frame.task_id,
                frame.attempt, frame.resume ? 1 : 0);
  return buf + frame.spec_json + "\n";
}

Status ParseTaskLine(const std::string& line, TaskFrame* out) {
  if (line.rfind("TASK ", 0) != 0) return Malformed("not a task line");
  size_t pos = 5, start = 0, end = 0;
  uint64_t id = 0, attempt = 0, resume = 0;
  if (!NextToken(line, &pos, &start, &end) ||
      !ParseU64Range(line, start, end, &id) || id == 0) {
    return Malformed("bad task id");
  }
  if (!NextToken(line, &pos, &start, &end) ||
      !ParseU64Range(line, start, end, &attempt) || attempt == 0 ||
      attempt > 1000000) {
    return Malformed("bad attempt");
  }
  if (!NextToken(line, &pos, &start, &end) ||
      !ParseU64Range(line, start, end, &resume) || resume > 1) {
    return Malformed("bad resume flag");
  }
  out->task_id = id;
  out->attempt = static_cast<int>(attempt);
  out->resume = resume == 1;
  out->spec_json = line.substr(pos);
  if (out->spec_json.empty()) return Malformed("missing spec");
  return Status::Ok();
}

std::string EncodeHeartbeatLine(uint64_t task_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "HB %" PRIu64 "\n", task_id);
  return buf;
}

std::string EncodeResultLine(const ResultFrame& frame) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "RESULT %" PRIu64 " %d %d %" PRId64 " %zu %s ",
                frame.task_id, frame.attempt, frame.ok ? 1 : 0,
                frame.recovered_calls, frame.payload.size(),
                Crc32Hex(Crc32(frame.payload)).c_str());
  return buf + frame.payload + "\n";
}

std::string EncodeGarbledResultLine(const ResultFrame& frame) {
  std::string line = EncodeResultLine(frame);
  // Drop the trailing third (newline included), as if the process died
  // mid-flush, then terminate the line so the coordinator sees a complete
  // — but checksum-violating — frame rather than blocking for more bytes.
  line.resize(line.size() - line.size() / 3);
  line.push_back('\n');
  return line;
}

WireKind ClassifyLine(const std::string& line) {
  if (line.rfind("HB ", 0) == 0) return WireKind::kHeartbeat;
  if (line.rfind("RESULT ", 0) == 0) return WireKind::kResult;
  return WireKind::kMalformed;
}

bool ParseHeartbeatLine(const std::string& line, uint64_t* task_id) {
  if (line.rfind("HB ", 0) != 0) return false;
  return ParseU64Range(line, 3, line.size(), task_id) && *task_id != 0;
}

Status ParseResultLine(const std::string& line, ResultFrame* out) {
  if (line.rfind("RESULT ", 0) != 0) return Malformed("not a result line");
  size_t pos = 7, start = 0, end = 0;
  uint64_t id = 0, attempt = 0, ok = 0, recovered = 0, len = 0;
  if (!NextToken(line, &pos, &start, &end) ||
      !ParseU64Range(line, start, end, &id) || id == 0) {
    return Malformed("bad task id");
  }
  if (!NextToken(line, &pos, &start, &end) ||
      !ParseU64Range(line, start, end, &attempt) || attempt == 0 ||
      attempt > 1000000) {
    return Malformed("bad attempt");
  }
  if (!NextToken(line, &pos, &start, &end) ||
      !ParseU64Range(line, start, end, &ok) || ok > 1) {
    return Malformed("bad ok flag");
  }
  if (!NextToken(line, &pos, &start, &end) ||
      !ParseU64Range(line, start, end, &recovered) ||
      recovered > static_cast<uint64_t>(INT64_MAX)) {
    return Malformed("bad recovered count");
  }
  if (!NextToken(line, &pos, &start, &end) ||
      !ParseU64Range(line, start, end, &len)) {
    return Malformed("bad length");
  }
  uint32_t declared_crc = 0;
  if (!NextToken(line, &pos, &start, &end) ||
      !ParseCrc32Hex(line.substr(start, end - start), &declared_crc)) {
    return Malformed("bad checksum");
  }
  // The payload owns the rest of the line; its observed byte count must
  // match the declaration exactly — a truncated frame fails here.
  const size_t payload_size = line.size() - pos;
  if (pos > line.size() || payload_size != len) {
    return Malformed("payload length mismatch (truncated frame)");
  }
  const std::string payload = line.substr(pos);
  if (Crc32(payload) != declared_crc) {
    return Malformed("payload checksum mismatch (corrupted frame)");
  }
  out->task_id = id;
  out->attempt = static_cast<int>(attempt);
  out->ok = ok == 1;
  out->recovered_calls = static_cast<int64_t>(recovered);
  out->payload = payload;
  return Status::Ok();
}

std::string EncodeFleetState(const std::vector<ResultFrame>& done) {
  std::string body;
  for (const ResultFrame& frame : done) body += EncodeResultLine(frame);
  return SealDurable(kStateMagic, body);
}

Status ParseFleetState(const std::string& text,
                       std::vector<ResultFrame>* done) {
  done->clear();
  StatusOr<std::string> body = OpenDurable(text, kStateMagic);
  if (!body.ok()) {
    return Status::InvalidArgument("bad state file: " +
                                   body.status().message());
  }
  size_t pos = 0;
  while (pos < body->size()) {
    const size_t end = body->find('\n', pos);
    if (end == std::string::npos) {
      return Status::InvalidArgument("bad state file: no final newline");
    }
    ResultFrame frame;
    const Status st = ParseResultLine(body->substr(pos, end - pos), &frame);
    if (!st.ok()) return st;
    done->push_back(std::move(frame));
    pos = end + 1;
  }
  return Status::Ok();
}

}  // namespace bati
