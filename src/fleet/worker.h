#ifndef BATI_FLEET_WORKER_H_
#define BATI_FLEET_WORKER_H_

#include <string>

#include "fleet/chaos.h"

namespace bati {

/// Per-process configuration of one fleet worker, copied into the child at
/// fork time (workers receive no further configuration over the wire).
struct FleetWorkerConfig {
  /// Directory for per-task round-boundary checkpoint files
  /// ("task<id>.ckpt"); empty disables checkpointing (and with it crash
  /// recovery by resume — crashed tasks then restart from scratch).
  std::string state_dir;
  /// Milliseconds between heartbeat lines while a task runs.
  int heartbeat_ms = 100;
  /// Deterministic process-fault injection (kill / stall / garble).
  ChaosOptions chaos;
};

/// The body of one forked fleet worker: a thin loop over TuningSession.
/// Reads TASK frames from `task_fd`, runs each spec as a fresh session
/// (sharing the process-wide bundle registry across tasks), heartbeats on
/// `result_fd` while running, and answers with a checksummed RESULT frame.
/// Chaos, when enabled, is applied per (task, attempt): kill crashes the
/// process at a round boundary via the engine's crash-at-round hook (the
/// checkpoint is on disk first), stall SIGSTOPs the process so the lease
/// expires, garble emits a corrupted frame. Returns the exit code: 0 on
/// clean EOF, 3 on a protocol error, 4 when the result pipe broke.
int FleetWorkerMain(int task_fd, int result_fd,
                    const FleetWorkerConfig& config);

/// The checkpoint file the worker uses for task `task_id` under
/// `state_dir` — shared with the coordinator, which validates the file
/// before granting a resume dispatch and accounts its recovered budget.
std::string TaskCheckpointPath(const std::string& state_dir,
                               uint64_t task_id);

}  // namespace bati

#endif  // BATI_FLEET_WORKER_H_
