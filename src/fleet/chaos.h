#ifndef BATI_FLEET_CHAOS_H_
#define BATI_FLEET_CHAOS_H_

#include <cstdint>

namespace bati {

/// Configuration of the process-level chaos model, the fleet analogue of
/// `src/faults/` (which injects faults into individual what-if calls; this
/// injects them into whole worker processes). All rates are probabilities
/// in [0, 1]; with `enabled == false` (the default) workers run untouched.
///
/// The model mirrors the three ways a real fleet worker misbehaves:
///  * kill   — the process dies abruptly (OOM kill, node loss): the worker
///             crashes mid-run via the engine's crash-at-round hook, after
///             the round-boundary checkpoint for that round is on disk;
///  * stall  — the process hangs (GC pause, cold EBS volume, livelock):
///             the worker SIGSTOPs itself, stops heartbeating, and the
///             coordinator's lease expiry must reap and re-dispatch;
///  * garble — the process babbles (partial flush, memory corruption): the
///             worker emits a truncated, checksum-violating result frame
///             that the coordinator must reject and retry elsewhere.
struct ChaosOptions {
  /// Master switch; everything below is ignored when false.
  bool enabled = false;
  /// Seed of the chaos schedule. The schedule is a pure function of
  /// (seed, task, attempt): deterministic, independent of which worker
  /// process draws the task and of wall-clock timing, so a chaos run is
  /// exactly reproducible and — because every attempt of a task computes
  /// the identical result — fleet output stays byte-identical to a clean
  /// sequential run no matter which attempts die.
  uint64_t seed = 1;
  /// Per-attempt probability that the worker is killed mid-run.
  double kill_rate = 0.0;
  /// Per-attempt probability that the worker stalls (SIGSTOP) instead of
  /// starting the task.
  double stall_rate = 0.0;
  /// Per-attempt probability that the worker garbles its result frame.
  double garble_rate = 0.0;
  /// Kill points are spread over tuner rounds [1, kill_round_span].
  int kill_round_span = 3;
  /// Attempts beyond this index are never faulted, guaranteeing that a
  /// task terminates after a bounded number of re-dispatches even at
  /// rates close to 1. Must stay below the coordinator's max_attempts.
  int max_faulty_attempts = 4;
};

/// What the injector decided for one (task, attempt) execution.
enum class ChaosKind {
  kNone,    // run the task normally
  kKill,    // crash at round `kill_round` (checkpoint for it is on disk)
  kStall,   // SIGSTOP before starting; the lease must expire
  kGarble,  // compute normally, then emit a corrupted result frame
};

struct ChaosDecision {
  ChaosKind kind = ChaosKind::kNone;
  /// Tuner round at which a kKill worker dies (>= 1). Tasks whose tuner
  /// declares fewer rounds simply outlive the kill point — the schedule
  /// stays pure without knowledge of per-algorithm round counts.
  int kill_round = 0;
};

/// Deterministic, seeded process-fault source. Stateless: Decide() is a
/// pure function of (seed, task, attempt), so the coordinator and any
/// worker — original or re-forked replacement — agree on the schedule
/// without communication, and a resumed coordinator replays the exact
/// fault history of the original run.
class ChaosInjector {
 public:
  explicit ChaosInjector(const ChaosOptions& options);

  const ChaosOptions& options() const { return options_; }

  /// The chaos decision for attempt `attempt` (1-based) of task
  /// `task_id` (the submission ticket). Pure and thread-safe.
  ChaosDecision Decide(uint64_t task_id, int attempt) const;

 private:
  /// Uniform [0, 1) draw from the per-task stream salted by `salt`.
  double Draw(uint64_t salt, uint64_t task_id, int attempt) const;

  ChaosOptions options_;
};

}  // namespace bati

#endif  // BATI_FLEET_CHAOS_H_
