#ifndef BATI_SESSION_TUNING_SESSION_H_
#define BATI_SESSION_TUNING_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "budget/governor.h"
#include "common/status.h"
#include "faults/fault_injector.h"
#include "obs/metrics.h"
#include "session/bundle_registry.h"
#include "tuner/tuner.h"
#include "whatif/cost_engine_stats.h"
#include "whatif/cost_service.h"
#include "whatif/whatif_executor.h"

namespace bati {

/// Creates a tuner by algorithm name. Recognized names:
///   "vanilla-greedy" | "two-phase-greedy" | "autoadmin-greedy" |
///   "dba-bandits" | "no-dba" | "dta" | "mcts" (paper default setting) |
///   "mcts-{uct,prior}-{bce,bg}-{fix0,fix1,rnd}" (ablation variants).
std::unique_ptr<Tuner> MakeTuner(const std::string& algorithm,
                                 TuningContext ctx, uint64_t seed);

/// True when `algorithm` names a tuner MakeTuner can build. Validating
/// early (spec parsing, serve admission) turns what would be a CHECK-crash
/// deep inside a session into a clean InvalidArgument at the input
/// boundary.
bool IsKnownAlgorithm(const std::string& algorithm);

/// One tuning run's specification.
struct RunSpec {
  std::string workload;
  std::string algorithm;
  int64_t budget = 1000;
  int max_indexes = 10;
  double max_storage_bytes = 0.0;
  uint64_t seed = 1;
  /// Budget-governor configuration (src/budget/); disabled by default, in
  /// which case the run is bit-identical to the pre-governor harness.
  BudgetGovernorOptions governor;
  /// Injected what-if fault model (src/faults/); off by default, in which
  /// case the run is bit-identical to the fault-free harness.
  FaultOptions faults;
  /// Retry/backoff policy around faulted what-if calls.
  RetryPolicy retry;
  /// When non-empty, the engine writes a crash-consistent checkpoint here
  /// at every round boundary.
  std::string checkpoint_path;
  /// When non-empty, the run resumes from this checkpoint file (the tuner
  /// replays deterministically from its seed; the engine answers the
  /// journaled prefix instead of re-invoking the optimizer). A checkpoint
  /// that fails validation — truncated, garbled (checksum mismatch), or
  /// written by a different run identity — is rejected: the session
  /// reports it in resume_status(), and a run that goes ahead anyway warns
  /// on stderr and starts fresh; since replay converges on the identical
  /// result, the fallback only costs budget re-spend, never correctness.
  std::string resume_path;
  /// When true, the run records engine metrics (histograms, counters) and
  /// the outcome carries a MetricsSnapshot. Off by default: an unobserved
  /// run is bit-identical to the pre-observability harness.
  bool collect_metrics = false;
  /// When non-empty, the run records a structured trace and writes it here
  /// as Chrome trace_event JSON (Perfetto-loadable).
  std::string trace_path;
  /// Trace ring-buffer capacity in events; 0 means Tracer::kDefaultCapacity.
  /// Setting this non-zero enables tracing even without a trace_path (the
  /// trace is then only reachable programmatically).
  size_t trace_buffer = 0;
  /// Deployment-signal preference for serve-side lifecycle decisions:
  /// "" (daemon default) | "whatif" | "exec-deterministic" | "measured".
  /// The tuning session itself ignores it — it rides the spec so a serve
  /// tenant's registration can carry the preference through checkpoints.
  /// Kept out of RunIdentity: the signal judges deployment, not tuning.
  std::string deploy_signal;
};

/// The canonical identity string for a spec — everything that must match
/// for a checkpoint to be resumable: workload, algorithm, constraints,
/// seed, governor switches, fault model, and retry policy.
std::string RunIdentity(const RunSpec& spec);

/// One tuning run's measured outcome.
struct RunOutcome {
  /// eta(W, C) with ground-truth what-if costs (how the paper reports
  /// improvements), percent.
  double true_improvement = 0.0;
  /// eta(W, C) with derived costs at the end of the run, percent.
  double derived_improvement = 0.0;
  int64_t calls_used = 0;
  size_t config_size = 0;
  /// The recommended configuration as candidate positions, ascending —
  /// the same universe the bundle's CandidateSet defines. Lets callers
  /// (the serve lifecycle manager, diff tooling) act on the configuration
  /// itself rather than just its size.
  std::vector<size_t> config_positions;
  /// Simulated seconds spent in what-if calls (Figure 2's orange bars).
  double whatif_seconds = 0.0;
  /// Simulated seconds spent elsewhere in tuning (Figure 2's blue bars).
  double other_seconds = 0.0;
  /// Best-so-far improvement after each episode/round, if the algorithm
  /// exposes one (greedy family, MCTS, DBA-bandits, No-DBA). When present,
  /// the last point equals `derived_improvement`.
  std::vector<double> trace;
  /// Cost-engine counters for the run: cache hits, derived and delta
  /// lookups, posting-list pruning, batched cells, wall time, the
  /// governor's skipped/banked/reallocated calls and stop round, and the
  /// degraded cells of a faulted run.
  CostEngineStats engine;
  /// Metrics snapshot of the run; populated iff spec.collect_metrics.
  bool has_metrics = false;
  MetricsSnapshot metrics;
  /// Events retained/dropped by the trace ring; meaningful only when the
  /// spec enabled tracing.
  size_t trace_events = 0;
  uint64_t trace_dropped = 0;
};

/// Session-level switches that are not part of the run's identity: they
/// only control which artifacts Run() captures as strings, which outlive
/// the session (a SessionManager hands them on in its results). All off by
/// default.
struct SessionOptions {
  /// Capture ResultToJson() of the finished run (the exact JSON line
  /// bati_tune --json prints) into TuningSession::result_json().
  bool capture_result_json = false;
  /// Capture the canonical form of the result line: wall-clock noise
  /// (engine_stats.executor_wall_seconds) is zeroed, so the line is a pure
  /// function of the spec — the form the fleet byte-compares across crashed
  /// and resumed attempts (`bati_batch --canonical`, always-on in
  /// `bati_fleet`).
  bool canonical_result_json = false;
  /// Capture LayoutToCsv() of the finished run (the full what-if call
  /// trace) into TuningSession::layout_csv().
  bool capture_layout_csv = false;
};

/// One tuning run as a first-class object, and the only code that turns a
/// RunSpec into a run. A TuningSession owns every piece of per-run mutable
/// state — the CostService (with governor, fault, retry, and checkpoint
/// options from the spec), the per-session MetricsRegistry and Tracer, and
/// the tuner with its spec-seeded RNG — while sharing the immutable
/// WorkloadBundle (workload, candidate universe, and the pure
/// WhatIfOptimizer) with any number of concurrent sessions.
///
/// Lifecycle: the constructor builds the run and applies
/// spec.resume_path; resume_status() reports how that went; Run() tunes;
/// afterwards outcome(), service() and tracer() describe the finished run.
///
/// Invariant: a session executed alone is bit-identical to RunOnce() (a
/// thin wrapper over this class) — same layout CSV bytes, same progress
/// trace, same stats. Concurrent sessions preserve this per-session
/// because no mutable state is shared.
class TuningSession {
 public:
  /// Builds the run. `bundle` must outlive the session.
  TuningSession(const WorkloadBundle& bundle, RunSpec spec,
                SessionOptions options = SessionOptions());

  TuningSession(const TuningSession&) = delete;
  TuningSession& operator=(const TuningSession&) = delete;

  /// The result of resuming from spec.resume_path: OK when the spec names
  /// no checkpoint or the checkpoint was accepted. A rejected checkpoint
  /// (truncated, checksum mismatch, identity or shape mismatch) leaves the
  /// service fresh; Run() then warns on stderr and starts over, which
  /// converges on the identical result. A caller for which a rejected
  /// checkpoint is fatal (bati_tune) checks this before Run().
  const Status& resume_status() const { return resume_status_; }

  /// Executes the run to completion. Must be called at most once.
  const RunOutcome& Run();

  const RunSpec& spec() const { return spec_; }
  const Tuner& tuner() const { return *tuner_; }

  /// The finished run's outcome and the tuner's result; valid after Run().
  const RunOutcome& outcome() const { return outcome_; }
  const TuningResult& result() const { return result_; }

  /// The run's cost service, and its trace ring (null unless the spec
  /// enables tracing). Both stay readable after Run().
  const CostService& service() const { return *service_; }
  const Tracer* tracer() const { return tracer_.get(); }

  /// Captured artifacts (empty unless the matching SessionOptions switch
  /// was set and Run() completed).
  const std::string& result_json() const { return result_json_; }
  const std::string& layout_csv() const { return layout_csv_; }

 private:
  const WorkloadBundle* bundle_;
  RunSpec spec_;
  SessionOptions options_;
  // The sinks are declared before the service, so they outlive it.
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<CostService> service_;
  std::unique_ptr<Tuner> tuner_;
  Status resume_status_;
  bool ran_ = false;
  TuningResult result_;
  RunOutcome outcome_;
  std::string result_json_;
  std::string layout_csv_;
};

/// Executes one tuning run against a bundle: constructs a TuningSession,
/// runs it, and returns the outcome.
RunOutcome RunOnce(const WorkloadBundle& bundle, const RunSpec& spec);

}  // namespace bati

#endif  // BATI_SESSION_TUNING_SESSION_H_
