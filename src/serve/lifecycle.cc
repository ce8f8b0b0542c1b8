#include "serve/lifecycle.h"

#include <algorithm>

#include "common/macros.h"

namespace bati {

const char* LifecycleActionName(LifecycleDecision::Action action) {
  switch (action) {
    case LifecycleDecision::Action::kShipped:
      return "shipped";
    case LifecycleDecision::Action::kNoChange:
      return "no-change";
    case LifecycleDecision::Action::kRollback:
      return "safety-rollback";
  }
  return "unknown";
}

LifecycleDecision IndexLifecycle::Apply(
    const WorkloadBundle& bundle,
    const std::vector<std::pair<int, double>>& window,
    const std::vector<size_t>& candidate, DeploymentSignal* signal,
    double calibration) {
  LifecycleDecision decision;
  if (candidate == deployed_) {
    decision.action = LifecycleDecision::Action::kNoChange;
    return decision;
  }

  const SignalCosts costs =
      signal->Evaluate(bundle, window, deployed_, candidate);
  // calibration is exactly 1.0 on every uncalibrated path, and x * 1.0 is
  // bit-exact — the what-if signal's decisions are byte-identical to the
  // pre-signal-layer lifecycle.
  decision.deployed_cost = calibration * costs.deployed;
  decision.candidate_cost = calibration * costs.candidate;
  decision.whatif_deployed_cost = costs.whatif_deployed;
  decision.whatif_candidate_cost = costs.whatif_candidate;
  decision.regression =
      decision.deployed_cost > 0.0
          ? (decision.candidate_cost - decision.deployed_cost) /
                decision.deployed_cost
          : 0.0;

  if (decision.regression > safety_bound_) {
    decision.action = LifecycleDecision::Action::kRollback;
    return decision;
  }

  // Stage the diff: candidate \ deployed is created, deployed \ candidate
  // is dropped. Both inputs are ascending, so set_difference applies.
  std::set_difference(candidate.begin(), candidate.end(), deployed_.begin(),
                      deployed_.end(),
                      std::back_inserter(decision.created));
  std::set_difference(deployed_.begin(), deployed_.end(), candidate.begin(),
                      candidate.end(),
                      std::back_inserter(decision.dropped));
  decision.action = LifecycleDecision::Action::kShipped;
  deployed_ = candidate;
  return decision;
}

}  // namespace bati
