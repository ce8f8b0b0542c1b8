// Figures 8-13 and 16-19: end-to-end improvement (%) vs budget for one
// workload, comparing MCTS either against the budget-aware greedy variants
// (vanilla, two-phase, AutoAdmin) or against the existing RL approaches
// (DBA-bandits, No-DBA), with one panel per K in {5, 10, 20}.
//
// Figures 22-23: ablation of the MCTS policies under one rollout strategy
// — {UCT, Prior} action selection x {BCE ("only"), Best-Greedy
// ("+Greedy")} extraction — across all five workloads and every K.
// "UCT Only" = mcts-uct-bce, "UCT + Greedy" = mcts-uct-bg, "Prior Only" =
// mcts-prior-bce, "Prior + Greedy" = mcts-prior-bg, each with the rollout
// suffix (-fix0: fixed-step (myopic), -rnd: randomized-step).
//
//   figures --figure N      N in {8..13, 16..19, 22, 23}
//
// Set BATI_SCALE=full for the paper-scale sweep.

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "harness/experiment.h"

namespace bati {
namespace {

enum class Rivals { kGreedy, kRl };

struct Figure {
  int number;
  const char* workload;
  const char* label;
  Rivals rivals;
  /// The large budget axis for the big workloads, the small one for JOB
  /// and TPC-H.
  bool large_budgets;
};

constexpr Figure kFigures[] = {
    {8, "tpcds", "TPC-DS", Rivals::kGreedy, true},
    {9, "real-d", "Real-D", Rivals::kGreedy, true},
    {10, "real-m", "Real-M", Rivals::kGreedy, true},
    {11, "tpcds", "TPC-DS", Rivals::kRl, true},
    {12, "real-d", "Real-D", Rivals::kRl, true},
    {13, "real-m", "Real-M", Rivals::kRl, true},
    {16, "job", "JOB", Rivals::kGreedy, false},
    {17, "tpch", "TPC-H", Rivals::kGreedy, false},
    {18, "job", "JOB", Rivals::kRl, false},
    {19, "tpch", "TPC-H", Rivals::kRl, false},
};

struct Ablation {
  int number;
  const char* rollout;
  /// Appended to every MCTS variant name.
  const char* suffix;
};

constexpr Ablation kAblations[] = {
    {22, "fixed-step (myopic) rollout", "-fix0"},
    {23, "randomized-step rollout", "-rnd"},
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --figure N\n"
               "  N is one of 8 9 10 11 12 13 16 17 18 19 22 23\n",
               argv0);
}

void Print(const Figure& figure) {
  const WorkloadBundle& bundle = LoadBundle(figure.workload);
  const BenchScale scale = GetBenchScale();
  const std::vector<std::string> algos =
      figure.rivals == Rivals::kGreedy
          ? std::vector<std::string>{"vanilla-greedy", "two-phase-greedy",
                                     "autoadmin-greedy", "mcts"}
          : std::vector<std::string>{"dba-bandits", "no-dba", "mcts"};
  const char* panel = "abc";
  for (size_t i = 0; i < scale.cardinalities.size(); ++i) {
    const int k = scale.cardinalities[i];
    PrintSeriesTable("Figure " + std::to_string(figure.number) + "(" +
                         std::string(1, panel[i]) + "): " + figure.label +
                         ", K=" + std::to_string(k) +
                         " - improvement (%) vs budget",
                     bundle, algos,
                     figure.large_budgets ? scale.large_budgets
                                          : scale.small_budgets,
                     k, /*storage_bytes=*/0.0, scale.seeds);
  }
}

void Print(const Ablation& ablation) {
  const BenchScale scale = GetBenchScale();
  std::vector<std::string> algos;
  for (const char* policy :
       {"mcts-uct-bce", "mcts-uct-bg", "mcts-prior-bce", "mcts-prior-bg"}) {
    algos.push_back(std::string(policy) + ablation.suffix);
  }
  struct Panel {
    const char* workload;
    bool small;
  };
  const Panel panels[] = {{"job", true},
                          {"tpch", true},
                          {"tpcds", false},
                          {"real-d", false},
                          {"real-m", false}};
  for (const Panel& panel : panels) {
    const WorkloadBundle& bundle = LoadBundle(panel.workload);
    for (int k : scale.cardinalities) {
      PrintSeriesTable("Figure " + std::to_string(ablation.number) +
                           ": ablation (" + ablation.rollout + "), " +
                           panel.workload + ", K=" + std::to_string(k),
                       bundle, algos,
                       panel.small ? scale.small_budgets : scale.large_budgets,
                       k, /*storage_bytes=*/0.0, scale.seeds);
    }
  }
}

}  // namespace
}  // namespace bati

int main(int argc, char** argv) {
  using namespace bati;
  int64_t number = -1;
  FlagParser parser;
  parser.AddInt64("figure", &number);
  if (!parser.Parse(argc, argv) || number < 0) {
    Usage(argv[0]);
    return 2;
  }
  for (const Figure& figure : kFigures) {
    if (figure.number == number) {
      Print(figure);
      return 0;
    }
  }
  for (const Ablation& ablation : kAblations) {
    if (ablation.number == number) {
      Print(ablation);
      return 0;
    }
  }
  std::fprintf(stderr, "unknown figure %lld\n",
               static_cast<long long>(number));
  Usage(argv[0]);
  return 2;
}
