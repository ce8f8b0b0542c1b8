#ifndef BATI_SIGNAL_EXEC_SIGNAL_H_
#define BATI_SIGNAL_EXEC_SIGNAL_H_

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "obs/metrics.h"
#include "signal/deployment_signal.h"

namespace bati {

/// Tunables shared by the exec-backed signals.
struct ExecSignalOptions {
  /// Interleaved repetitions per configuration for the measured signal
  /// (pooled per-query minima, the correlation harness's estimator).
  int measured_repetitions = 3;
  /// Store-materialization seed (StoreOptions::seed).
  uint64_t store_seed = 42;
  /// Total catalog rows beyond which Ready() refuses: the serve event
  /// loop must not stall for minutes materializing a statistics-scale
  /// store; the caller falls back to the calibrated what-if estimate.
  int64_t max_store_rows = 2 * 1000 * 1000;
  /// Where the engines' "exec.*" operator counters land; the serve daemon
  /// points it at its own registry.
  MetricsRegistry* metrics = nullptr;
  /// Test seam for the measured signal: when set, per-query seconds come
  /// from this function of (query id, configuration positions) instead of
  /// wall-clock execution — deterministic rollback drills without timer
  /// dependence. Production leaves it empty.
  std::function<double(int query_id, const std::vector<size_t>& positions)>
      measured_time_override;
};

/// Lazily materialized, bundle-keyed execution engines shared by both
/// exec-backed signals (and both sides of every evaluation). Bundle
/// pointers are stable for the process lifetime (BundleRegistry), so the
/// pointer is the key; the underlying column store is additionally shared
/// process-wide through exec/store_cache.h, so drift sub-workload bundles
/// over the same catalog reuse one store. Single-threaded (serve event
/// loop).
class SignalEngineCache {
 public:
  explicit SignalEngineCache(const ExecSignalOptions& options)
      : options_(options) {}

  /// FailedPrecondition when the bundle's catalog exceeds max_store_rows.
  Status Ready(const WorkloadBundle& bundle) const;

  /// The engine for `bundle` (built on first use). Ready() must be Ok.
  exec::ExecutionEngine* Get(const WorkloadBundle& bundle);

  const ExecSignalOptions& options() const { return options_; }

 private:
  ExecSignalOptions options_;
  std::map<const WorkloadBundle*, std::unique_ptr<exec::ExecutionEngine>>
      engines_;
};

/// Deterministic execution-backed signal: prices every window query as a
/// fixed weighted sum of the per-operator work its plan does on the
/// plan-driven executor (rows scanned, entries touched, seeks, probes,
/// ...). Uses real execution — the plan the what-if cost claims to price
/// actually runs against the materialized store, once per distinct
/// (query, plan) per engine — but never a clock, so equal inputs produce
/// equal bytes and the serve daemon's reproducibility guarantee survives.
class DeterministicExecSignal : public DeploymentSignal {
 public:
  explicit DeterministicExecSignal(SignalEngineCache* engines)
      : engines_(engines) {}

  Status Ready(const WorkloadBundle& bundle) const override;
  SignalCosts Evaluate(const WorkloadBundle& bundle,
                       const std::vector<std::pair<int, double>>& window,
                       const std::vector<size_t>& deployed,
                       const std::vector<size_t>& candidate) override;

  /// Cost units of one query under one configuration: the weighted
  /// operator work of its resolved plan (ExecutionEngine::Work, which
  /// executes each distinct plan once per engine). Exposed for tests.
  double QueryCostUnits(exec::ExecutionEngine* engine, int query_id,
                        const std::vector<Index>& config);

 private:
  SignalEngineCache* engines_;
};

/// Measured execution-backed signal: wall-clock seconds per query, pooled
/// per-query minima over `measured_repetitions` interleaved sweeps of
/// deployed and candidate (the correlation harness's noise-clipping
/// estimator), window-weighted. What-if costs ride along for calibration.
class MeasuredSignal : public DeploymentSignal {
 public:
  explicit MeasuredSignal(SignalEngineCache* engines) : engines_(engines) {}

  Status Ready(const WorkloadBundle& bundle) const override;
  SignalCosts Evaluate(const WorkloadBundle& bundle,
                       const std::vector<std::pair<int, double>>& window,
                       const std::vector<size_t>& deployed,
                       const std::vector<size_t>& candidate) override;

 private:
  SignalEngineCache* engines_;
};

}  // namespace bati

#endif  // BATI_SIGNAL_EXEC_SIGNAL_H_
