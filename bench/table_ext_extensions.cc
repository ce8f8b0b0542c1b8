// Extension study (beyond the paper's figures): the alternative policies the
// paper mentions but does not evaluate —
//   * Boltzmann exploration as the action-selection policy (Section 6.1.2),
//   * RAVE updates (related work, Section 8),
//   * hybrid BCE+BG extraction (Appendix C.2),
// plus a robustness check against a *non-monotone* what-if optimizer
// (Assumption 1 broken via CostModelParams::monotonicity_noise), which the
// paper flags as a possibility for real optimizer cost models.

#include <cstdio>
#include <memory>
#include <string>

#include "harness/experiment.h"
#include "workload/compression.h"

namespace {

using namespace bati;

void PolicyStudy(const char* workload, int64_t budget, int k,
                 const std::vector<uint64_t>& seeds) {
  const WorkloadBundle& bundle = LoadBundle(workload);
  std::printf("# Extension study: %s, budget=%lld, K=%d\n", workload,
              static_cast<long long>(budget), k);
  std::printf("%-28s %14s %8s\n", "variant", "improvement%", "sd");
  for (const char* algo :
       {"mcts", "mcts-boltz", "mcts-prior-bg-rave", "mcts-prior-hybrid",
        "mcts-prior-bg-feat", "mcts-boltz-hybrid-rave"}) {
    RunSpec spec;
    spec.workload = workload;
    spec.algorithm = algo;
    spec.budget = budget;
    spec.max_indexes = k;
    CellStats cell = RunSeeds(bundle, spec, seeds);
    std::printf("%-28s %14.2f %8.2f\n", algo, cell.mean, cell.stddev);
  }
  std::printf("\n");
}

void NoiseStudy(const char* workload, int64_t budget, int k,
                const std::vector<uint64_t>& seeds) {
  // Rebuild the pipeline with a deliberately non-monotone optimizer.
  WorkloadBundle bundle;
  bundle.workload = MakeWorkloadByName(workload);
  bundle.candidates = GenerateCandidates(bundle.workload);
  std::printf(
      "# Robustness to non-monotone optimizer costs (%s, budget=%lld, "
      "K=%d)\n",
      workload, static_cast<long long>(budget), k);
  std::printf("%-8s %20s %20s\n", "noise", "mcts", "two-phase-greedy");
  for (double noise : {0.0, 0.1, 0.3}) {
    CostModelParams params;
    params.monotonicity_noise = noise;
    bundle.optimizer =
        std::make_shared<WhatIfOptimizer>(bundle.workload.database, params);
    std::printf("%-8.2f", noise);
    for (const char* algo : {"mcts", "two-phase-greedy"}) {
      RunSpec spec;
      spec.workload = workload;
      spec.algorithm = algo;
      spec.budget = budget;
      spec.max_indexes = k;
      // Not the registry's bundle, so the seeds run one after another.
      CellStats cell = RunSeeds(bundle, spec, seeds);
      std::printf(" %14.2f +-%4.2f", cell.mean, cell.stddev);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

void RelaxationStudy(const char* workload, int64_t budget, int k,
                     const std::vector<uint64_t>& seeds) {
  const WorkloadBundle& bundle = LoadBundle(workload);
  std::printf("# Relaxation vs bottom-up baselines: %s, budget=%lld, K=%d\n",
              workload, static_cast<long long>(budget), k);
  std::printf("%-20s %14s %8s\n", "algorithm", "improvement%", "sd");
  for (const char* algo :
       {"relaxation", "two-phase-greedy", "autoadmin-greedy", "mcts"}) {
    RunSpec spec;
    spec.workload = workload;
    spec.algorithm = algo;
    spec.budget = budget;
    spec.max_indexes = k;
    CellStats cell = RunSeeds(bundle, spec, seeds);
    std::printf("%-20s %14.2f %8.2f\n", algo, cell.mean, cell.stddev);
  }
  std::printf("\n");
}

void CompressionStudy(int64_t budget, int k) {
  // Tune the template-compressed TPC-DS and evaluate the recommendation on
  // the full workload: budget-efficiency of workload compression
  // (footnote 5 of the paper).
  const WorkloadBundle& full = LoadBundle("tpcds");
  CompressedWorkload compressed = CompressWorkload(full.workload);
  CandidateSet comp_candidates = GenerateCandidates(compressed.workload);
  std::printf(
      "# Workload compression study: TPC-DS 99 queries -> %d templates, "
      "budget=%lld, K=%d\n",
      compressed.workload.num_queries(), static_cast<long long>(budget), k);

  WorkloadBundle comp_bundle{std::move(compressed.workload), full.optimizer,
                             std::move(comp_candidates)};
  RunSpec spec;
  spec.workload = "tpcds-compressed";
  spec.algorithm = "mcts";
  spec.budget = budget;
  spec.max_indexes = k;
  TuningSession session(comp_bundle, spec);
  session.Run();
  std::vector<Index> chosen =
      session.service().Materialize(session.result().best_config);
  double base = 0.0, tuned = 0.0;
  for (const Query& q : full.workload.queries) {
    base += full.optimizer->Cost(q, {});
    tuned += full.optimizer->Cost(q, chosen);
  }
  double transfer = (1.0 - tuned / base) * 100.0;

  RunSpec direct;
  direct.workload = "tpcds";
  direct.algorithm = "mcts";
  direct.budget = budget;
  direct.max_indexes = k;
  double direct_improvement = RunOnce(full, direct).true_improvement;
  std::printf("%-36s %14.2f\n", "tuned compressed, applied to full",
              transfer);
  std::printf("%-36s %14.2f\n", "tuned full directly", direct_improvement);
  std::printf("\n");
}

int main() {
  BenchScale scale = GetBenchScale();
  PolicyStudy("tpch", 500, 10, scale.seeds);
  PolicyStudy("tpcds", scale.large_budgets.front(), 10, scale.seeds);
  NoiseStudy("tpch", 500, 10, scale.seeds);
  RelaxationStudy("tpch", 500, 10, scale.seeds);
  RelaxationStudy("tpcds", scale.large_budgets.front(), 10, scale.seeds);
  CompressionStudy(600, 10);
  return 0;
}
