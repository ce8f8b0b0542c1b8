#include "signal/deployment_signal.h"

#include "storage/index.h"

namespace bati {

const char* SignalKindName(SignalKind kind) {
  switch (kind) {
    case SignalKind::kWhatIf:
      return "whatif";
    case SignalKind::kDeterministicExec:
      return "exec-deterministic";
    case SignalKind::kMeasured:
      return "measured";
  }
  return "unknown";
}

bool ParseSignalKind(const std::string& name, SignalKind* kind) {
  if (name == "whatif") {
    *kind = SignalKind::kWhatIf;
    return true;
  }
  if (name == "exec-deterministic") {
    *kind = SignalKind::kDeterministicExec;
    return true;
  }
  if (name == "measured") {
    *kind = SignalKind::kMeasured;
    return true;
  }
  return false;
}

std::vector<Index> ToConfig(const WorkloadBundle& bundle,
                            const std::vector<size_t>& positions) {
  std::vector<Index> config;
  config.reserve(positions.size());
  for (size_t pos : positions) {
    BATI_CHECK(pos < bundle.candidates.indexes.size());
    config.push_back(bundle.candidates.indexes[pos]);
  }
  return config;
}

double WindowWhatIfCost(const WorkloadBundle& bundle,
                        const std::vector<std::pair<int, double>>& window,
                        const std::vector<size_t>& positions) {
  const std::vector<Index> config = ToConfig(bundle, positions);
  return WindowAccumulate(bundle, window, [&](int qi) {
    return bundle.optimizer->Cost(
        bundle.workload.queries[static_cast<size_t>(qi)], config);
  });
}

SignalCosts WhatIfSignal::Evaluate(
    const WorkloadBundle& bundle,
    const std::vector<std::pair<int, double>>& window,
    const std::vector<size_t>& deployed,
    const std::vector<size_t>& candidate) {
  SignalCosts costs;
  costs.deployed = WindowWhatIfCost(bundle, window, deployed);
  costs.candidate = WindowWhatIfCost(bundle, window, candidate);
  costs.whatif_deployed = costs.deployed;
  costs.whatif_candidate = costs.candidate;
  return costs;
}

}  // namespace bati
