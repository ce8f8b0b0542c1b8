#ifndef BATI_FLEET_WIRE_H_
#define BATI_FLEET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace bati {

// The fleet's pipe protocol: newline-delimited text frames between the
// coordinator and its forked workers. Task lines flow coordinator→worker;
// heartbeat and result lines flow worker→coordinator. Result frames are
// length- and CRC-guarded so a babbling or killed-mid-write worker produces
// a *detectably* bad frame (re-dispatch) rather than a silently wrong
// output line — the process-level analogue of the checkpoint checksum.

/// One dispatched task: the submission ticket, the (1-based) attempt
/// number, whether the worker should resume from the task's round-boundary
/// checkpoint, and the RunSpecToJson() form of the spec.
struct TaskFrame {
  uint64_t task_id = 0;
  int attempt = 1;
  bool resume = false;
  std::string spec_json;
};

/// One finished task: `ok` distinguishes a run result from a deterministic
/// task failure (unknown workload); `payload` is the output line either way
/// — exactly the line sequential `bati_batch` would print. `recovered_calls`
/// is the what-if budget answered from the resumed checkpoint journal
/// (CostEngineStats::replayed_calls), which the coordinator aggregates into
/// its fleet summary.
struct ResultFrame {
  uint64_t task_id = 0;
  int attempt = 1;
  bool ok = true;
  int64_t recovered_calls = 0;
  std::string payload;
};

/// Frame kind tags, dispatched on by the coordinator's read loop.
enum class WireKind {
  kHeartbeat,
  kResult,
  kMalformed,  // anything else: a babbling worker
};

/// "TASK <id> <attempt> <resume> <spec_json>\n". The spec JSON owns the
/// rest of the line (it contains spaces, never a newline).
std::string EncodeTaskLine(const TaskFrame& frame);
Status ParseTaskLine(const std::string& line, TaskFrame* out);

/// "HB <id>\n", sent periodically by a worker while it runs a task; the
/// coordinator renews the task's lease on receipt.
std::string EncodeHeartbeatLine(uint64_t task_id);

/// "RESULT <id> <attempt> <ok> <recovered> <len> <crc32> <payload>\n".
/// `len` is the payload byte count and `crc32` its checksum; ParseResultLine
/// rejects any disagreement, so truncation or corruption anywhere in the
/// frame surfaces as kMalformed, never as a wrong payload.
std::string EncodeResultLine(const ResultFrame& frame);

/// A deterministically corrupted result line — what a worker under
/// ChaosKind::kGarble emits: the real frame truncated mid-payload (the
/// declared length and checksum no longer match). Parsing it must fail.
std::string EncodeGarbledResultLine(const ResultFrame& frame);

/// Classifies one worker→coordinator line (without its trailing newline).
WireKind ClassifyLine(const std::string& line);

/// Parses a heartbeat line. Returns false on malformed input.
bool ParseHeartbeatLine(const std::string& line, uint64_t* task_id);

/// Parses and validates a result line (length + CRC). Any malformed or
/// corrupted frame yields a non-OK Status.
Status ParseResultLine(const std::string& line, ResultFrame* out);

/// The coordinator's state file: the common/durable envelope
/// (`bati-fleet-state v2`, length + CRC-32 over the whole body) around one
/// RESULT line per completed task. The envelope guards the task ids and
/// `ok` flags too, which the per-frame CRC (payload only) does not.
std::string EncodeFleetState(const std::vector<ResultFrame>& done);
Status ParseFleetState(const std::string& text,
                       std::vector<ResultFrame>* done);

}  // namespace bati

#endif  // BATI_FLEET_WIRE_H_
