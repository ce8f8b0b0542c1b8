// Extension figure: what the budget governor buys. For each (workload,
// algorithm, budget) cell, runs the tuner ungoverned and governed at the
// default thresholds and reports what-if calls saved versus improvement
// given up. Emits one JSON object per line (easy to collect with jq) plus
// a trailing summary row.
//
//   fig_ext_early_stop              (reduced scale)
//   BATI_SCALE=full fig_ext_early_stop

#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace {

struct CellResult {
  double calls_saved_pct = 0.0;
  double improvement_delta_pct = 0.0;
};

CellResult RunCell(const char* workload, const char* algorithm,
                   int64_t budget, int k, uint64_t seed) {
  using namespace bati;
  const WorkloadBundle& bundle = LoadBundle(workload);

  RunSpec base;
  base.workload = workload;
  base.algorithm = algorithm;
  base.budget = budget;
  base.max_indexes = k;
  base.seed = seed;

  RunSpec governed = base;
  governed.governor = BudgetGovernorOptions::Enabled();

  RunOutcome plain = RunOnce(bundle, base);
  RunOutcome gov = RunOnce(bundle, governed);

  // Calls saved: budget units the governor did not spend, relative to the
  // ungoverned run's spend. Skips answered for free count as savings even
  // when some were later reallocated to calls the plain run couldn't make.
  const double plain_calls = static_cast<double>(plain.calls_used);
  const double gov_calls = static_cast<double>(gov.calls_used);
  CellResult cell;
  cell.calls_saved_pct =
      plain_calls > 0.0 ? (plain_calls - gov_calls) / plain_calls * 100.0
                        : 0.0;
  // Relative improvement regression (positive = governed is worse).
  cell.improvement_delta_pct =
      plain.true_improvement > 0.0
          ? (plain.true_improvement - gov.true_improvement) /
                plain.true_improvement * 100.0
          : 0.0;

  std::printf(
      "{\"workload\":\"%s\",\"algorithm\":\"%s\",\"budget\":%lld,"
      "\"seed\":%llu,"
      "\"calls_base\":%lld,\"calls_gov\":%lld,\"calls_saved_pct\":%.2f,"
      "\"improvement_base\":%.4f,\"improvement_gov\":%.4f,"
      "\"improvement_delta_pct\":%.4f,"
      "\"skipped\":%lld,\"banked\":%lld,\"reallocated\":%lld,"
      "\"stop_round\":%d}\n",
      workload, algorithm, static_cast<long long>(budget),
      static_cast<unsigned long long>(seed),
      static_cast<long long>(plain.calls_used),
      static_cast<long long>(gov.calls_used), cell.calls_saved_pct,
      plain.true_improvement, gov.true_improvement,
      cell.improvement_delta_pct,
      static_cast<long long>(gov.engine.governor_skipped_calls),
      static_cast<long long>(gov.engine.governor_banked_calls),
      static_cast<long long>(gov.engine.governor_reallocated_calls),
      gov.engine.governor_stop_round);
  std::fflush(stdout);
  return cell;
}

}  // namespace

int main() {
  using namespace bati;
  BenchScale scale = GetBenchScale();
  const uint64_t seed = scale.seeds.front();

  struct Cell {
    const char* workload;
    const char* algorithm;
    int64_t budget;
    int k;
  };
  std::vector<Cell> cells;
  for (const char* algo :
       {"vanilla-greedy", "two-phase-greedy", "autoadmin-greedy", "dta",
        "mcts"}) {
    cells.push_back(Cell{"tpch", algo, scale.small_budgets.back(), 5});
    cells.push_back(Cell{"tpcds", algo, scale.large_budgets.front(), 10});
  }

  struct Aggregate {
    double saved_sum = 0.0;
    double delta_sum = 0.0;
    int n = 0;
  };
  Aggregate total;
  std::vector<std::pair<std::string, Aggregate>> per_workload;
  for (const Cell& c : cells) {
    CellResult r = RunCell(c.workload, c.algorithm, c.budget, c.k, seed);
    total.saved_sum += r.calls_saved_pct;
    total.delta_sum += r.improvement_delta_pct;
    ++total.n;
    Aggregate* agg = nullptr;
    for (auto& [name, a] : per_workload) {
      if (name == c.workload) agg = &a;
    }
    if (agg == nullptr) {
      per_workload.emplace_back(c.workload, Aggregate{});
      agg = &per_workload.back().second;
    }
    agg->saved_sum += r.calls_saved_pct;
    agg->delta_sum += r.improvement_delta_pct;
    ++agg->n;
  }
  // Per-workload summaries: the acceptance numbers (mean calls saved and
  // mean relative improvement regression at default thresholds).
  for (const auto& [name, agg] : per_workload) {
    std::printf(
        "{\"summary\":\"%s\",\"cells\":%d,\"mean_calls_saved_pct\":%.2f,"
        "\"mean_improvement_delta_pct\":%.4f}\n",
        name.c_str(), agg.n, agg.saved_sum / agg.n, agg.delta_sum / agg.n);
  }
  std::printf(
      "{\"summary\":\"all\",\"cells\":%d,\"mean_calls_saved_pct\":%.2f,"
      "\"mean_improvement_delta_pct\":%.4f}\n",
      total.n, total.saved_sum / total.n, total.delta_sum / total.n);
  return 0;
}
