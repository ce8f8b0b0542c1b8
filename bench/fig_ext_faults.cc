// Extension figure: tuning quality under what-if faults. For each
// (workload, algorithm, fault-rate) cell, runs the tuner fault-free and
// with injected transient/sticky/spike faults at that rate and reports
// the improvement given up plus how much of the matrix was answered with
// degraded derived costs. Emits one JSON object per line (easy to collect
// with jq) plus a trailing summary row per fault rate.
//
//   fig_ext_faults              (reduced scale)
//   BATI_SCALE=full fig_ext_faults
//
// The headline claim this figure pins: at a 10% transient rate every
// tuner completes and the mean improvement regression stays small,
// because cells that exhaust their retries fall back to the derived cost
// d(q, C) instead of failing the run.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"

namespace {

struct CellResult {
  double improvement_delta_pct = 0.0;
};

CellResult RunCell(const char* workload, const char* algorithm,
                   int64_t budget, int k, uint64_t seed, double rate) {
  using namespace bati;
  const WorkloadBundle& bundle = LoadBundle(workload);

  RunSpec base;
  base.workload = workload;
  base.algorithm = algorithm;
  base.budget = budget;
  base.max_indexes = k;
  base.seed = seed;

  RunSpec faulted = base;
  faulted.faults.enabled = true;
  faulted.faults.seed = seed;
  faulted.faults.transient_rate = rate;
  faulted.faults.sticky_rate = rate / 5.0;
  faulted.faults.spike_rate = rate / 2.0;

  RunOutcome plain = RunOnce(bundle, base);
  RunOutcome fault = RunOnce(bundle, faulted);

  // Relative improvement regression (positive = faulted run is worse).
  CellResult cell;
  cell.improvement_delta_pct =
      plain.true_improvement > 0.0
          ? (plain.true_improvement - fault.true_improvement) /
                plain.true_improvement * 100.0
          : 0.0;

  std::printf(
      "{\"workload\":\"%s\",\"algorithm\":\"%s\",\"budget\":%lld,"
      "\"seed\":%llu,\"fault_rate\":%.2f,"
      "\"calls_base\":%lld,\"calls_faulted\":%lld,"
      "\"improvement_base\":%.4f,\"improvement_faulted\":%.4f,"
      "\"improvement_delta_pct\":%.4f,"
      "\"degraded_cells\":%lld,\"transient\":%lld,\"sticky\":%lld,"
      "\"timeouts\":%lld,\"retries\":%lld}\n",
      workload, algorithm, static_cast<long long>(budget),
      static_cast<unsigned long long>(seed), rate,
      static_cast<long long>(plain.calls_used),
      static_cast<long long>(fault.calls_used), plain.true_improvement,
      fault.true_improvement, cell.improvement_delta_pct,
      static_cast<long long>(fault.engine.degraded_cells),
      static_cast<long long>(fault.engine.fault_transient_errors),
      static_cast<long long>(fault.engine.fault_sticky_failures),
      static_cast<long long>(fault.engine.fault_timeouts),
      static_cast<long long>(fault.engine.retry_attempts));
  std::fflush(stdout);
  return cell;
}

}  // namespace

int main() {
  using namespace bati;
  BenchScale scale = GetBenchScale();
  const uint64_t seed = scale.seeds.front();
  const std::vector<double> rates = {0.02, 0.05, 0.10, 0.20};

  struct Cell {
    const char* workload;
    const char* algorithm;
    int64_t budget;
    int k;
  };
  std::vector<Cell> cells;
  for (const char* algo : {"vanilla-greedy", "two-phase-greedy", "mcts"}) {
    cells.push_back(Cell{"toy", algo, 60, 3});
    cells.push_back(Cell{"tpch", algo, scale.small_budgets.front(), 5});
  }

  struct Aggregate {
    double delta_sum = 0.0;
    int n = 0;
  };
  std::vector<std::pair<double, Aggregate>> per_rate;
  for (double rate : rates) {
    per_rate.emplace_back(rate, Aggregate{});
    Aggregate& agg = per_rate.back().second;
    for (const Cell& c : cells) {
      CellResult r = RunCell(c.workload, c.algorithm, c.budget, c.k, seed,
                             rate);
      agg.delta_sum += r.improvement_delta_pct;
      ++agg.n;
    }
  }
  // Per-rate summaries: the acceptance numbers (mean relative improvement
  // regression as the fault rate climbs).
  for (const auto& [rate, agg] : per_rate) {
    std::printf(
        "{\"summary\":\"rate\",\"fault_rate\":%.2f,\"cells\":%d,"
        "\"mean_improvement_delta_pct\":%.4f}\n",
        rate, agg.n, agg.delta_sum / agg.n);
  }
  return 0;
}
