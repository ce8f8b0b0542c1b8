#include "serve/serve_checkpoint.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/durable.h"
#include "common/file_util.h"

namespace bati {

namespace {

/// v3 put the body in the common/durable envelope (length + CRC-32), so a
/// flipped or truncated file is rejected instead of resuming a different
/// state. Earlier versions are rejected as unsupported.
constexpr char kMagic[] = "bati-serve v3";

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("malformed serve checkpoint: " + what);
}

/// Emits "keyword count p1 p2 ... pk\n" for a position list.
void AppendPositions(std::string* out, const char* keyword,
                     const std::vector<size_t>& positions) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %zu", keyword, positions.size());
  out->append(buf);
  for (size_t pos : positions) {
    std::snprintf(buf, sizeof(buf), " %zu", pos);
    out->append(buf);
  }
  out->push_back('\n');
}

/// Parses the positions of a "keyword count p1 ... pk" token vector,
/// starting at toks[1]. Requires strict ascent.
bool ParsePositions(const std::vector<std::string>& toks,
                    std::vector<size_t>* positions) {
  int64_t count = 0;
  if (toks.size() < 2 || !ParseI64(toks[1], &count) || count < 0 ||
      toks.size() != static_cast<size_t>(count) + 2) {
    return false;
  }
  positions->clear();
  for (int64_t i = 0; i < count; ++i) {
    int64_t p = 0;
    if (!ParseI64(toks[static_cast<size_t>(i) + 2], &p) || p < 0) {
      return false;
    }
    if (!positions->empty() &&
        static_cast<size_t>(p) <= positions->back()) {
      return false;
    }
    positions->push_back(static_cast<size_t>(p));
  }
  return true;
}

}  // namespace

std::string SerializeServeCheckpoint(const ServeCheckpoint& ckpt) {
  std::string out;
  out.reserve(512);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "events %" PRId64 "\n",
                ckpt.events_processed);
  out.append(buf);
  out.append("clock ");
  AppendHexDouble(&out, ckpt.clock);
  out.push_back('\n');
  std::snprintf(buf, sizeof(buf), "next-tune %" PRIu64 "\n",
                ckpt.next_tune_id);
  out.append(buf);
  std::snprintf(buf, sizeof(buf),
                "counters %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
                " %" PRId64 " %" PRId64 " %" PRId64 "\n",
                ckpt.queries, ckpt.tunes_submitted, ckpt.tunes_applied,
                ckpt.errors, ckpt.drift_retunes, ckpt.shipped,
                ckpt.rollbacks);
  out.append(buf);
  out.append("signal ");
  out.append(SignalKindName(ckpt.signal));
  out.push_back('\n');

  std::snprintf(buf, sizeof(buf), "tenants %zu\n", ckpt.tenants.size());
  out.append(buf);
  for (const ServeTenantState& t : ckpt.tenants) {
    out.append("tenant ");
    out.append(t.name);
    out.push_back('\n');
    // The spec JSON owns the rest of its line (it contains spaces but,
    // by construction, no newlines).
    out.append("spec ");
    out.append(t.spec_json);
    out.push_back('\n');
    std::snprintf(buf, sizeof(buf),
                  "quotas %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64 "\n",
                  t.queue_quota, t.budget_quota, t.pending, t.budget_used);
    out.append(buf);
    std::snprintf(buf, sizeof(buf), "generation %" PRIu64 "\n",
                  t.generation);
    out.append(buf);
    std::snprintf(buf, sizeof(buf), "calibration %" PRId64 " ",
                  t.calib_samples);
    out.append(buf);
    AppendHexDouble(&out, t.calib_sum);
    out.push_back('\n');
    AppendPositions(&out, "deployed", t.deployed);
    // The observer payload is line-based itself; frame it by line count.
    size_t observer_lines = 0;
    for (char c : t.observer_state) observer_lines += c == '\n' ? 1 : 0;
    std::snprintf(buf, sizeof(buf), "observer %zu\n", observer_lines);
    out.append(buf);
    out.append(t.observer_state);
  }

  std::snprintf(buf, sizeof(buf), "pending %zu\n", ckpt.pending.size());
  out.append(buf);
  for (const ServePendingTune& p : ckpt.pending) {
    std::snprintf(buf, sizeof(buf),
                  "tune %" PRIu64 " %s %s %" PRId64 " %d\n", p.tune_id,
                  p.tenant.c_str(), p.origin.c_str(), p.reserved_budget,
                  p.failed ? 1 : 0);
    out.append(buf);
    out.append("times ");
    AppendHexDouble(&out, p.submit_clock);
    out.push_back(' ');
    AppendHexDouble(&out, p.tune_seconds);
    out.push_back('\n');
    if (p.failed) {
      out.append("error ");
      out.append(p.error);
      out.push_back('\n');
    } else {
      out.append("result ");
      AppendHexDouble(&out, p.improvement);
      std::snprintf(buf, sizeof(buf), " %" PRId64, p.calls_used);
      out.append(buf);
      std::snprintf(buf, sizeof(buf), " %zu", p.positions.size());
      out.append(buf);
      for (size_t pos : p.positions) {
        std::snprintf(buf, sizeof(buf), " %zu", pos);
        out.append(buf);
      }
      out.push_back('\n');
    }
  }
  out.append("end\n");
  return SealDurable(kMagic, out);
}

StatusOr<ServeCheckpoint> ParseServeCheckpoint(const std::string& text) {
  StatusOr<std::string> body = OpenDurable(text, kMagic);
  if (!body.ok()) return Malformed(body.status().message());
  std::istringstream in(*body);
  std::string line;
  ServeCheckpoint ckpt;
  std::vector<std::string> toks;
  auto next_tokens = [&](const char* keyword, size_t count) -> bool {
    if (!std::getline(in, line)) return false;
    toks = SplitTokens(line);
    return toks.size() == count + 1 && toks[0] == keyword;
  };

  if (!next_tokens("events", 1) || !ParseI64(toks[1], &ckpt.events_processed) ||
      ckpt.events_processed < 0) {
    return Malformed("bad events line");
  }
  if (!next_tokens("clock", 1) || !ParseHexDouble(toks[1], &ckpt.clock) ||
      ckpt.clock < 0.0) {
    return Malformed("bad clock line");
  }
  if (!next_tokens("next-tune", 1) ||
      !ParseU64(toks[1], &ckpt.next_tune_id) || ckpt.next_tune_id < 1) {
    return Malformed("bad next-tune line");
  }
  if (!next_tokens("counters", 7) || !ParseI64(toks[1], &ckpt.queries) ||
      !ParseI64(toks[2], &ckpt.tunes_submitted) ||
      !ParseI64(toks[3], &ckpt.tunes_applied) ||
      !ParseI64(toks[4], &ckpt.errors) ||
      !ParseI64(toks[5], &ckpt.drift_retunes) ||
      !ParseI64(toks[6], &ckpt.shipped) ||
      !ParseI64(toks[7], &ckpt.rollbacks)) {
    return Malformed("bad counters line");
  }
  if (!next_tokens("signal", 1) || !ParseSignalKind(toks[1], &ckpt.signal)) {
    return Malformed("bad signal line");
  }

  int64_t num_tenants = 0;
  if (!next_tokens("tenants", 1) || !ParseI64(toks[1], &num_tenants) ||
      num_tenants < 0) {
    return Malformed("bad tenants line");
  }
  for (int64_t i = 0; i < num_tenants; ++i) {
    ServeTenantState t;
    if (!next_tokens("tenant", 1)) return Malformed("bad tenant line");
    t.name = toks[1];
    if (!ckpt.tenants.empty() && t.name <= ckpt.tenants.back().name) {
      return Malformed("tenants out of order");
    }
    if (!std::getline(in, line) || line.rfind("spec ", 0) != 0) {
      return Malformed("bad spec line");
    }
    t.spec_json = line.substr(std::strlen("spec "));
    if (!next_tokens("quotas", 4) || !ParseI64(toks[1], &t.queue_quota) ||
        !ParseI64(toks[2], &t.budget_quota) ||
        !ParseI64(toks[3], &t.pending) ||
        !ParseI64(toks[4], &t.budget_used) || t.queue_quota < 1 ||
        t.budget_quota < 0 || t.pending < 0 || t.budget_used < 0) {
      return Malformed("bad quotas line");
    }
    if (!next_tokens("generation", 1) ||
        !ParseU64(toks[1], &t.generation)) {
      return Malformed("bad generation line");
    }
    if (!next_tokens("calibration", 2) ||
        !ParseI64(toks[1], &t.calib_samples) ||
        !ParseHexDouble(toks[2], &t.calib_sum) || t.calib_samples < 0 ||
        t.calib_sum < 0.0) {
      return Malformed("bad calibration line");
    }
    if (!std::getline(in, line)) return Malformed("missing deployed line");
    toks = SplitTokens(line);
    if (toks.empty() || toks[0] != "deployed" ||
        !ParsePositions(toks, &t.deployed)) {
      return Malformed("bad deployed line");
    }
    int64_t observer_lines = 0;
    if (!next_tokens("observer", 1) ||
        !ParseI64(toks[1], &observer_lines) || observer_lines < 0) {
      return Malformed("bad observer line");
    }
    for (int64_t j = 0; j < observer_lines; ++j) {
      if (!std::getline(in, line)) return Malformed("truncated observer");
      t.observer_state.append(line);
      t.observer_state.push_back('\n');
    }
    ckpt.tenants.push_back(std::move(t));
  }

  int64_t num_pending = 0;
  if (!next_tokens("pending", 1) || !ParseI64(toks[1], &num_pending) ||
      num_pending < 0) {
    return Malformed("bad pending line");
  }
  for (int64_t i = 0; i < num_pending; ++i) {
    ServePendingTune p;
    int64_t failed = 0;
    if (!next_tokens("tune", 5) || !ParseU64(toks[1], &p.tune_id) ||
        !ParseI64(toks[4], &p.reserved_budget) ||
        !ParseI64(toks[5], &failed) || p.reserved_budget < 0 ||
        (failed != 0 && failed != 1)) {
      return Malformed("bad tune line");
    }
    p.tenant = toks[2];
    p.origin = toks[3];
    p.failed = failed == 1;
    if (p.origin != "register" && p.origin != "tune" &&
        p.origin != "drift") {
      return Malformed("bad tune origin");
    }
    if (!ckpt.pending.empty() &&
        p.tune_id <= ckpt.pending.back().tune_id) {
      return Malformed("pending tunes out of order");
    }
    if (p.tune_id >= ckpt.next_tune_id) {
      return Malformed("pending tune id beyond next-tune");
    }
    if (!next_tokens("times", 2) ||
        !ParseHexDouble(toks[1], &p.submit_clock) ||
        !ParseHexDouble(toks[2], &p.tune_seconds) || p.submit_clock < 0.0 ||
        p.tune_seconds < 0.0) {
      return Malformed("bad times line");
    }
    if (p.failed) {
      if (!std::getline(in, line) || line.rfind("error ", 0) != 0) {
        return Malformed("bad error line");
      }
      p.error = line.substr(std::strlen("error "));
    } else {
      if (!std::getline(in, line)) return Malformed("missing result line");
      toks = SplitTokens(line);
      if (toks.size() < 4 || toks[0] != "result" ||
          !ParseHexDouble(toks[1], &p.improvement) ||
          !ParseI64(toks[2], &p.calls_used) || p.calls_used < 0) {
        return Malformed("bad result line");
      }
      // Reuse the "keyword count p1..pk" parser by dropping the leading
      // improvement/calls tokens.
      std::vector<std::string> pos_toks(toks.begin() + 2, toks.end());
      pos_toks[0] = "positions";
      if (!ParsePositions(pos_toks, &p.positions)) {
        return Malformed("bad result positions");
      }
    }
    ckpt.pending.push_back(std::move(p));
  }
  if (!std::getline(in, line) || line != "end") {
    return Malformed("missing end marker");
  }
  return ckpt;
}

Status SaveServeCheckpoint(const ServeCheckpoint& ckpt,
                           const std::string& path) {
  return AtomicWriteFile(path, SerializeServeCheckpoint(ckpt));
}

StatusOr<ServeCheckpoint> LoadServeCheckpoint(const std::string& path) {
  StatusOr<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return ParseServeCheckpoint(*text);
}

}  // namespace bati
