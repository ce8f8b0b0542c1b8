#ifndef BATI_SIGNAL_DEPLOYMENT_SIGNAL_H_
#define BATI_SIGNAL_DEPLOYMENT_SIGNAL_H_

#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "session/bundle_registry.h"
#include "storage/index.h"

namespace bati {

/// Which regression signal judges a deployment.
enum class SignalKind {
  /// The bundle's pure what-if optimizer — today's derived cost model and
  /// the default. Bit-identical to the pre-signal-layer serve daemon.
  kWhatIf = 0,
  /// Operator-counter-weighted cost units from the real executor: every
  /// window query is executed through src/exec following its what-if plan,
  /// and the cost is a fixed weighted sum of the per-operator work counts
  /// (rows scanned, seeks, probes, ...). A pure function of plan + store —
  /// no wall-clock anywhere — so serve output stays byte-reproducible
  /// across replays and parallelism settings.
  kDeterministicExec = 1,
  /// Measured wall-clock seconds from src/exec, pooled per-query minima
  /// over interleaved repetitions (the correlation harness's estimator).
  /// The DBA-bandits never-regress guarantee on *observed* execution; not
  /// byte-reproducible, by construction.
  kMeasured = 2,
};

/// "whatif" | "exec-deterministic" | "measured" — the spelling used by
/// bati_serve --signal and the serve checkpoint.
const char* SignalKindName(SignalKind kind);

/// Inverse of SignalKindName(); false on an unknown spelling.
bool ParseSignalKind(const std::string& name, SignalKind* kind);

/// Both configurations' window-weighted costs under one signal, plus the
/// matching what-if costs (always filled): the observed/what-if pairs feed
/// the serve daemon's calibration ratio, and for WhatIfSignal the two
/// pairs coincide.
struct SignalCosts {
  double deployed = 0.0;
  double candidate = 0.0;
  double whatif_deployed = 0.0;
  double whatif_candidate = 0.0;
};

/// A pluggable deployment-regression signal: given a tenant's bundle, its
/// live window (the observer's WindowSupport(); uniform over the whole
/// workload when empty), and the deployed/candidate configurations as
/// ascending candidate positions, produce comparable costs for both sides.
///
/// Implementations must be deterministic functions of their inputs except
/// where the signal's contract is explicitly wall-clock (kMeasured).
/// Single-threaded: the serve event loop is the only caller.
class DeploymentSignal {
 public:
  virtual ~DeploymentSignal() = default;

  /// Whether Evaluate() may be called for `bundle`. Exec-backed signals
  /// refuse catalogs too large to materialize within their row budget
  /// (FailedPrecondition); the caller then falls back to the calibrated
  /// what-if estimate. Deterministic, so fallback decisions replay
  /// identically.
  virtual Status Ready(const WorkloadBundle& bundle) const {
    (void)bundle;
    return Status::Ok();
  }

  /// Costs both configurations on the window. Positions must be in range
  /// for bundle.candidates.indexes (CHECK). Ready() must have returned Ok.
  virtual SignalCosts Evaluate(
      const WorkloadBundle& bundle,
      const std::vector<std::pair<int, double>>& window,
      const std::vector<size_t>& deployed,
      const std::vector<size_t>& candidate) = 0;
};

/// The Index objects behind ascending candidate positions (CHECKs that
/// each is in range for bundle.candidates.indexes).
std::vector<Index> ToConfig(const WorkloadBundle& bundle,
                            const std::vector<size_t>& positions);

/// Window-weighted sum of a per-query cost `unit(query_id)`: each window
/// entry contributes weight * unit, in window order; an empty window (no
/// live observations yet) falls back to the tuning-time assumption of a
/// uniformly weighted workload, in query order. Every signal sums through
/// this one loop, so their costs and calibration baselines agree to the
/// bit.
template <typename UnitFn>
double WindowAccumulate(const WorkloadBundle& bundle,
                        const std::vector<std::pair<int, double>>& window,
                        UnitFn unit) {
  const int nq = bundle.workload.num_queries();
  double cost = 0.0;
  if (window.empty()) {
    for (int qi = 0; qi < nq; ++qi) cost += unit(qi);
    return cost;
  }
  for (const auto& [query_id, weight] : window) {
    BATI_CHECK(query_id >= 0 && query_id < nq);
    cost += weight * unit(query_id);
  }
  return cost;
}

/// Window-weighted what-if cost of a configuration — the derived-cost side
/// of every signal and the whole of WhatIfSignal.
double WindowWhatIfCost(const WorkloadBundle& bundle,
                        const std::vector<std::pair<int, double>>& window,
                        const std::vector<size_t>& positions);

/// The default signal: both cost pairs are the pure what-if window costs.
class WhatIfSignal : public DeploymentSignal {
 public:
  SignalCosts Evaluate(const WorkloadBundle& bundle,
                       const std::vector<std::pair<int, double>>& window,
                       const std::vector<size_t>& deployed,
                       const std::vector<size_t>& candidate) override;
};

}  // namespace bati

#endif  // BATI_SIGNAL_DEPLOYMENT_SIGNAL_H_
