#ifndef BATI_SESSION_SESSION_MANAGER_H_
#define BATI_SESSION_SESSION_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "session/tuning_session.h"

namespace bati {

struct SessionResult;

/// Configuration of a SessionManager.
struct SessionManagerOptions {
  /// Worker threads draining the queue; each runs one session at a time.
  int parallelism = 1;
  /// Artifact-capture switches applied to every session the manager runs.
  SessionOptions session;
  /// When true the workers start idle; nothing runs until Start(). Lets a
  /// caller submit a whole batch before execution begins.
  bool start_paused = false;
  /// When set, invoked once per terminal result as soon as it exists —
  /// before Drain() can observe it — so consumers (bati_batch's incremental
  /// output, the serve daemon's pending-tune table) see results the moment
  /// they land instead of at drain time. Called from worker threads,
  /// possibly concurrently, with no manager lock held: the callee
  /// synchronizes and must not block on Drain().
  std::function<void(const SessionResult&)> on_result;
};

/// The terminal record of one submitted spec.
struct SessionResult {
  /// Submission ticket, 1-based in submission order.
  uint64_t id = 0;
  RunSpec spec;
  /// Position in completion order (1-based): the order the scheduler
  /// actually finished sessions, which under concurrency differs from
  /// submission order.
  uint64_t sequence = 0;
  /// Non-OK when the session could not run (unknown workload name).
  Status status;
  /// The run's outcome; valid iff status.ok().
  RunOutcome outcome;
  /// Captured artifacts, per SessionManagerOptions::session.
  std::string result_json;
  std::string layout_csv;
};

/// Runs many tuning sessions concurrently over shared bundles: a bounded
/// worker pool drains a queue of RunSpecs, resolving each workload through
/// the process-wide BundleRegistry (so N sessions share one immutable
/// bundle and one pure what-if optimizer) and running it as a private
/// TuningSession (so no mutable state is shared between sessions).
///
/// Scheduling is FIFO with per-workload fairness: specs are queued FIFO
/// within their workload, and workers pick the next non-empty workload
/// queue in round-robin rotation (first-submission order). A burst of
/// submissions for one workload therefore cannot starve another tenant's
/// queue, while a single-workload stream degrades to plain FIFO.
///
/// Every session runs bit-identically to RunOnce() of the same spec
/// regardless of parallelism or scheduling order — sessions share only
/// immutable state, so results carry no trace of their neighbors.
class SessionManager {
 public:
  explicit SessionManager(const SessionManagerOptions& options);
  /// Drains remaining work (as Drain()) before joining the workers.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Enqueues a spec; returns its ticket (1-based, submission order).
  uint64_t Submit(RunSpec spec);

  /// Releases the workers of a start_paused manager. Idempotent.
  void Start();

  /// Blocks until every submitted spec has completed and returns all results so far, sorted by submission id. Implies
  /// Start(). The manager stays usable: more specs may be submitted and
  /// drained afterwards.
  std::vector<SessionResult> Drain();

 private:
  struct PendingRun {
    uint64_t id = 0;
    RunSpec spec;
  };

  void WorkerLoop();
  /// Picks the next spec under mu_ per the rotation policy; false when no
  /// work is queued.
  bool PopNextLocked(PendingRun* out);
  void RecordResultLocked(SessionResult result);

  SessionManagerOptions options_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for work / shutdown
  std::condition_variable done_cv_;  // Drain() waits for quiescence
  /// FIFO queue per workload, plus the round-robin rotation over workload
  /// names in first-submission order.
  std::map<std::string, std::deque<PendingRun>> queues_;
  std::vector<std::string> rotation_;
  size_t rotation_next_ = 0;
  uint64_t next_id_ = 1;
  uint64_t next_sequence_ = 1;
  size_t queued_ = 0;
  size_t running_ = 0;
  bool paused_ = false;
  bool shutdown_ = false;
  std::vector<SessionResult> results_;
  std::vector<std::thread> workers_;
};

}  // namespace bati

#endif  // BATI_SESSION_SESSION_MANAGER_H_
