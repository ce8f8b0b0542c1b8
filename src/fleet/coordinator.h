#ifndef BATI_FLEET_COORDINATOR_H_
#define BATI_FLEET_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "fleet/chaos.h"
#include "session/tuning_session.h"

namespace bati {

/// Configuration of a fleet run.
struct FleetOptions {
  /// Worker processes to keep alive (forked on demand; a dead worker is
  /// reaped and replaced immediately).
  int workers = 2;
  /// Bounded in-flight window: a task is admitted only while its ticket is
  /// within `window` of the lowest unfinished ticket, so output emission —
  /// a contiguous prefix in submission order — never falls unboundedly
  /// behind completion. 0 means 4 * workers.
  int window = 0;
  /// A task's lease expires this long after its last heartbeat; expiry
  /// means the worker is stalled (not merely slow — heartbeats ride a
  /// dedicated thread) and gets SIGKILLed and its task re-dispatched.
  int lease_timeout_ms = 2000;
  /// Heartbeat interval handed to workers. Must be well under the lease
  /// timeout; Run() rejects lease_timeout_ms < 4 * heartbeat_ms.
  int heartbeat_ms = 100;
  /// Speculative re-dispatch: when a worker sits idle with nothing queued
  /// and a task has been running longer than this, a second copy of the
  /// task is dispatched. Output is unaffected (every attempt computes
  /// byte-identical bytes; the first finisher wins, the loser is killed).
  /// 0 disables speculation.
  int straggler_ms = 0;
  /// A task that cannot complete within this many attempts (worker death,
  /// lease expiry, garbled frame each burn one) yields an error output
  /// line instead of running forever.
  int max_attempts = 6;
  /// Deterministic process-fault injection, forwarded to every worker.
  ChaosOptions chaos;
  /// Directory for per-task round-boundary checkpoints; empty disables
  /// crash recovery (re-dispatched tasks then restart from scratch).
  std::string state_dir;
  /// Fleet-level state file: completed output lines are persisted here
  /// (crash-consistently, after every completion) so a killed-and-restarted
  /// coordinator re-runs only unfinished tasks. Empty disables.
  std::string state_path;
  /// Load `state_path` before running and skip tasks it marks complete.
  bool resume = false;
  bool verbose = false;
};

/// Counters describing what a fleet run actually did. Output bytes are
/// independent of all of these — that is the point of the design.
struct FleetStats {
  size_t tasks = 0;
  size_t ok = 0;
  size_t failed = 0;
  /// Total dispatches, including retries and speculation.
  size_t dispatches = 0;
  size_t worker_forks = 0;
  /// Worker deaths observed via pipe EOF (crash, chaos kill, exit).
  size_t worker_deaths = 0;
  /// Leases that expired (stalled worker SIGKILLed).
  size_t leases_expired = 0;
  /// Result frames rejected by length/CRC validation or unparseable lines.
  size_t garbled_frames = 0;
  size_t speculative_dispatches = 0;
  /// Speculative copies that finished first (the original was the loser).
  size_t speculative_wins = 0;
  /// Completions whose worker resumed from a checkpoint (recovered > 0).
  size_t resumed_tasks = 0;
  /// What-if budget answered from checkpoint journals instead of re-spent
  /// (sum of CostEngineStats::replayed_calls over completions).
  int64_t recovered_calls = 0;
  /// True when Run() returned early because the stop flag was raised; the
  /// state file (if any) holds every completion observed so far.
  bool interrupted = false;

  std::string ToString() const;
};

/// Runs `specs` to completion across a fleet of forked worker processes
/// and calls `emit` with each task's output line — exactly the line
/// sequential `bati_batch --canonical` would print — in submission order,
/// as a contiguous prefix (line K is emitted the moment tasks 1..K are all
/// done). `emit` returning false (broken output pipe) aborts the run with
/// a non-OK Status. `stop` may be flipped from a signal handler; the fleet
/// then persists state and returns with stats->interrupted set.
///
/// The coordinator is strictly single-threaded (poll(2) event loop), so
/// fork(2) is safe even under TSan; workers are the only parallelism.
Status RunFleet(const FleetOptions& options,
                const std::vector<RunSpec>& specs,
                const std::function<bool(const std::string&)>& emit,
                const std::atomic<bool>* stop, FleetStats* stats);

}  // namespace bati

#endif  // BATI_FLEET_COORDINATOR_H_
