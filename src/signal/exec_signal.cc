#include "signal/exec_signal.h"

#include <algorithm>
#include <array>
#include <limits>
#include <string>

#include "common/macros.h"

namespace bati {

namespace {

/// Weight of one unit of each operator counter in deterministic cost
/// units. The ratios mirror the cost model's qualitative ordering — a
/// random heap lookup or tree descent dwarfs touching one covering entry,
/// a scanned heap row is the baseline, per-scan and per-seek setup carry
/// fixed overhead — but the absolute scale is arbitrary: the lifecycle
/// only ever compares two configurations under the same weights, and the
/// calibration ratio absorbs scale when units stand next to what-if cost.
constexpr double kWeightSeqScan = 10.0;
constexpr double kWeightSeqRow = 1.0;
constexpr double kWeightIndexSeek = 8.0;
constexpr double kWeightIndexEntry = 0.5;
constexpr double kWeightIndexFullScan = 10.0;
constexpr double kWeightHeapLookup = 4.0;
constexpr double kWeightHashBuildRow = 2.0;
constexpr double kWeightHashProbeRow = 1.0;
constexpr double kWeightMergeRow = 0.5;
constexpr double kWeightSortRow = 2.0;
constexpr double kWeightAggGroup = 1.0;
constexpr double kWeightResultRow = 0.1;

/// Largest single-table row count in the bundle's catalog — the quantity
/// StoreOptions::max_rows_per_table caps. A table beyond the cap would be
/// silently truncated at materialization, decoupling executed work from
/// the catalog statistics what-if costs are derived from, so such bundles
/// are rejected up front instead.
int64_t MaxTableRows(const WorkloadBundle& bundle) {
  const Database& db = *bundle.workload.database;
  double rows = 0.0;
  for (int t = 0; t < db.num_tables(); ++t) {
    rows = std::max(rows, db.table(t).row_count());
  }
  return static_cast<int64_t>(rows);
}

Status GuardStoreSize(const WorkloadBundle& bundle, int64_t max_rows) {
  const int64_t rows = MaxTableRows(bundle);
  if (rows > max_rows) {
    return Status::FailedPrecondition(
        "catalog of workload \"" + bundle.workload.name +
        "\" has a table of " + std::to_string(rows) +
        " rows, beyond the exec-signal cap of " + std::to_string(max_rows) +
        " (falling back to calibrated what-if)");
  }
  return Status::Ok();
}

}  // namespace

Status SignalEngineCache::Ready(const WorkloadBundle& bundle) const {
  return GuardStoreSize(bundle, options_.max_store_rows);
}

exec::ExecutionEngine* SignalEngineCache::Get(const WorkloadBundle& bundle) {
  BATI_CHECK(Ready(bundle).ok());
  std::unique_ptr<exec::ExecutionEngine>& slot = engines_[&bundle];
  if (slot == nullptr) {
    exec::StoreOptions store_options;
    store_options.seed = options_.store_seed;
    store_options.max_rows_per_table = options_.max_store_rows;
    slot = std::make_unique<exec::ExecutionEngine>(
        bundle.workload, store_options, options_.metrics);
  }
  return slot.get();
}

Status DeterministicExecSignal::Ready(const WorkloadBundle& bundle) const {
  return engines_->Ready(bundle);
}

double DeterministicExecSignal::QueryCostUnits(
    exec::ExecutionEngine* engine, int query_id,
    const std::vector<Index>& config) {
  // Tree builds are excluded: materialization is one-time and cached, not
  // per-evaluation cost.
  const exec::OpCounts& w = engine->Work(query_id, config);
  const auto units = [](int64_t n) { return static_cast<double>(n); };
  return kWeightSeqScan * units(w.seq_scans) +
         kWeightSeqRow * units(w.seq_rows) +
         kWeightIndexSeek * units(w.index_seeks) +
         kWeightIndexEntry * units(w.index_entries) +
         kWeightIndexFullScan * units(w.index_full_scans) +
         kWeightHeapLookup * units(w.heap_lookups) +
         kWeightHashBuildRow * units(w.hash_build_rows) +
         kWeightHashProbeRow * units(w.hash_probe_rows) +
         kWeightMergeRow * units(w.merge_rows) +
         kWeightSortRow * units(w.sort_rows) +
         kWeightAggGroup * units(w.agg_groups) +
         kWeightResultRow * units(w.result_rows);
}

SignalCosts DeterministicExecSignal::Evaluate(
    const WorkloadBundle& bundle,
    const std::vector<std::pair<int, double>>& window,
    const std::vector<size_t>& deployed,
    const std::vector<size_t>& candidate) {
  exec::ExecutionEngine* engine = engines_->Get(bundle);
  const std::vector<Index> deployed_config = ToConfig(bundle, deployed);
  const std::vector<Index> candidate_config = ToConfig(bundle, candidate);
  SignalCosts costs;
  costs.deployed = WindowAccumulate(bundle, window, [&](int qi) {
    return QueryCostUnits(engine, qi, deployed_config);
  });
  costs.candidate = WindowAccumulate(bundle, window, [&](int qi) {
    return QueryCostUnits(engine, qi, candidate_config);
  });
  costs.whatif_deployed = WindowWhatIfCost(bundle, window, deployed);
  costs.whatif_candidate = WindowWhatIfCost(bundle, window, candidate);
  return costs;
}

Status MeasuredSignal::Ready(const WorkloadBundle& bundle) const {
  // The override seam never touches a store, so it is always ready.
  if (engines_->options().measured_time_override) return Status::Ok();
  return engines_->Ready(bundle);
}

SignalCosts MeasuredSignal::Evaluate(
    const WorkloadBundle& bundle,
    const std::vector<std::pair<int, double>>& window,
    const std::vector<size_t>& deployed,
    const std::vector<size_t>& candidate) {
  SignalCosts costs;
  costs.whatif_deployed = WindowWhatIfCost(bundle, window, deployed);
  costs.whatif_candidate = WindowWhatIfCost(bundle, window, candidate);

  const ExecSignalOptions& options = engines_->options();
  if (options.measured_time_override) {
    costs.deployed = WindowAccumulate(bundle, window, [&](int qi) {
      return options.measured_time_override(qi, deployed);
    });
    costs.candidate = WindowAccumulate(bundle, window, [&](int qi) {
      return options.measured_time_override(qi, candidate);
    });
    return costs;
  }

  exec::ExecutionEngine* engine = engines_->Get(bundle);
  const std::array<std::vector<Index>, 2> configs = {
      ToConfig(bundle, deployed), ToConfig(bundle, candidate)};
  const size_t nq = static_cast<size_t>(bundle.workload.num_queries());
  std::array<std::vector<double>, 2> best;
  best[0].assign(nq, std::numeric_limits<double>::infinity());
  best[1].assign(nq, std::numeric_limits<double>::infinity());

  // Interleave the two configurations across repetitions (the correlation
  // harness's pattern): slow drift in machine state hits both sides
  // equally instead of biasing whichever ran last.
  const int reps = std::max(1, options.measured_repetitions);
  for (int rep = 0; rep < reps; ++rep) {
    for (int side = 0; side < 2; ++side) {
      const exec::ExecutionEngine::RunResult run =
          engine->ExecuteWorkload(configs[static_cast<size_t>(side)], 1);
      for (size_t qi = 0; qi < nq; ++qi) {
        best[static_cast<size_t>(side)][qi] =
            std::min(best[static_cast<size_t>(side)][qi],
                     run.per_query_seconds[qi]);
      }
    }
  }
  costs.deployed = WindowAccumulate(bundle, window, [&](int qi) {
    return best[0][static_cast<size_t>(qi)];
  });
  costs.candidate = WindowAccumulate(bundle, window, [&](int qi) {
    return best[1][static_cast<size_t>(qi)];
  });
  return costs;
}

}  // namespace bati
