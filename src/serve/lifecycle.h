#ifndef BATI_SERVE_LIFECYCLE_H_
#define BATI_SERVE_LIFECYCLE_H_

#include <string>
#include <utility>
#include <vector>

#include "session/bundle_registry.h"
#include "signal/deployment_signal.h"

namespace bati {

/// What the lifecycle manager decided about one candidate configuration.
struct LifecycleDecision {
  enum class Action {
    /// The candidate was deployed: `created` staged in, `dropped` staged
    /// out.
    kShipped,
    /// The candidate equals the deployed configuration; nothing to do.
    kNoChange,
    /// The candidate's cost on the live window regressed past the safety
    /// bound; the deployed configuration stays (DBA-bandits' guarantee: a
    /// regressing recommendation is rolled back, never shipped).
    kRollback,
  };

  Action action = Action::kNoChange;
  /// Candidate positions staged in / out by a kShipped decision (empty
  /// otherwise), ascending.
  std::vector<size_t> created;
  std::vector<size_t> dropped;
  /// Signal costs of both configurations on the live window, after the
  /// calibration multiplier (0 for kNoChange, which evaluates nothing).
  /// Under the default what-if signal these are the weighted derived
  /// costs, exactly as before the signal layer.
  double deployed_cost = 0.0;
  double candidate_cost = 0.0;
  /// (candidate - deployed) / deployed; negative is an improvement.
  double regression = 0.0;
  /// The pure what-if window costs the signal reported alongside its own
  /// (uncalibrated) — the denominator of the observed/what-if ratio.
  double whatif_deployed_cost = 0.0;
  double whatif_candidate_cost = 0.0;
  /// Reporting fields stamped by the caller (the daemon) on a decision a
  /// non-default signal judged: which signal kind, whether a calibrated
  /// what-if estimate stood in for it, and the multiplier that was
  /// applied. A kNoChange decision keeps the defaults.
  SignalKind signal = SignalKind::kWhatIf;
  bool estimated = false;
  double calibration = 1.0;
};

const char* LifecycleActionName(LifecycleDecision::Action action);

/// One tenant's index lifecycle: tracks the deployed configuration (as
/// candidate positions in the tenant bundle's universe) and evaluates each
/// recommended or operator-proposed candidate that differs from it on the
/// *live* window before anything ships. The evaluation runs through a pluggable
/// DeploymentSignal — pure what-if by default (the serve-side analogue of
/// DBA-bandits' safety check on derived cost), or one of the
/// execution-backed signals when the daemon closes the loop on real
/// execution. Single-threaded: only the daemon's event loop applies
/// decisions.
class IndexLifecycle {
 public:
  /// `safety_bound` is the maximum tolerated relative regression of the
  /// candidate over the deployed configuration on the live window.
  explicit IndexLifecycle(double safety_bound)
      : safety_bound_(safety_bound) {}

  /// Judges `candidate` (ascending positions into
  /// `bundle.candidates.indexes`; all positions must be in range) against
  /// the deployed configuration. A candidate equal to deployed() is
  /// kNoChange at once: no signal evaluation, zero costs and regression.
  /// Any other candidate is costed by `signal` on `window` (the observer's
  /// WindowSupport(); uniform over the whole workload when empty) and
  /// ships — updating deployed() — unless it regresses past the safety
  /// bound. `calibration` scales the signal's costs: the daemon passes its
  /// running observed/what-if ratio when a what-if estimate stands in for
  /// an expensive signal, and 1.0 otherwise.
  LifecycleDecision Apply(const WorkloadBundle& bundle,
                          const std::vector<std::pair<int, double>>& window,
                          const std::vector<size_t>& candidate,
                          DeploymentSignal* signal, double calibration = 1.0);

  const std::vector<size_t>& deployed() const { return deployed_; }

  /// Restores the deployed configuration from a checkpoint.
  void Restore(std::vector<size_t> deployed) {
    deployed_ = std::move(deployed);
  }

  double safety_bound() const { return safety_bound_; }

 private:
  double safety_bound_;
  std::vector<size_t> deployed_;
};

}  // namespace bati

#endif  // BATI_SERVE_LIFECYCLE_H_
