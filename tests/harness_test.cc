#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "harness/experiment.h"
#include "mcts/mcts_tuner.h"

namespace bati {
namespace {

TEST(MakeTuner, ResolvesEveryAlgorithmName) {
  // Every name bench/, tests/, tools/ and CI pass, and the tuner name() it
  // resolves to.
  TuningContext ctx;
  ctx.workload = &LoadBundle("toy").workload;
  ctx.candidates = &LoadBundle("toy").candidates;
  struct Case {
    const char* spec;
    const char* expected_name;
  };
  const Case cases[] = {
      {"vanilla-greedy", "vanilla-greedy"},
      {"two-phase-greedy", "two-phase-greedy"},
      {"autoadmin-greedy", "autoadmin-greedy"},
      {"dba-bandits", "dba-bandits"},
      {"no-dba", "no-dba"},
      {"dta", "dta"},
      {"relaxation", "relaxation"},
      {"mcts", "mcts-prior-fix0-bg"},
      {"mcts-uct-bce", "mcts-uct-fix0-bce"},
      {"mcts-uct-bg", "mcts-uct-fix0-bg"},
      {"mcts-prior-bce", "mcts-prior-fix0-bce"},
      {"mcts-prior-bg", "mcts-prior-fix0-bg"},
      {"mcts-uct-bce-fix0", "mcts-uct-fix0-bce"},
      {"mcts-uct-bg-fix0", "mcts-uct-fix0-bg"},
      {"mcts-prior-bce-fix0", "mcts-prior-fix0-bce"},
      {"mcts-prior-bg-fix0", "mcts-prior-fix0-bg"},
      {"mcts-uct-bce-rnd", "mcts-uct-rnd-bce"},
      {"mcts-uct-bg-rnd", "mcts-uct-rnd-bg"},
      {"mcts-prior-bce-rnd", "mcts-prior-rnd-bce"},
      {"mcts-prior-bg-rnd", "mcts-prior-rnd-bg"},
      {"mcts-prior-bg-fix1", "mcts-prior-fix1-bg"},
      {"mcts-uct-rnd-bce", "mcts-uct-rnd-bce"},
      {"mcts-uct-fix0-bce", "mcts-uct-fix0-bce"},
      {"mcts-prior-fix0-bg", "mcts-prior-fix0-bg"},
      {"mcts-prior-rnd-bg", "mcts-prior-rnd-bg"},
      {"mcts-prior-fix1-bg", "mcts-prior-fix1-bg"},
      {"mcts-prior-fix0-hybrid", "mcts-prior-fix0-hybrid"},
      {"mcts-prior-fix0-bg-rave", "mcts-prior-fix0-bg-rave"},
      {"mcts-prior-fix0-bg-feat", "mcts-prior-fix0-bg-feat"},
      {"mcts-boltz", "mcts-boltz-fix0-bg"},
      {"mcts-boltz-fix0-bg", "mcts-boltz-fix0-bg"},
      {"mcts-boltz-hybrid-rave", "mcts-boltz-fix0-hybrid-rave"},
      {"mcts-prior-hybrid", "mcts-prior-fix0-hybrid"},
      {"mcts-prior-bg-rave", "mcts-prior-fix0-bg-rave"},
      {"mcts-prior-bg-feat", "mcts-prior-fix0-bg-feat"},
  };
  for (const Case& c : cases) {
    auto tuner = MakeTuner(c.spec, ctx, 1);
    ASSERT_NE(tuner, nullptr) << c.spec;
    EXPECT_EQ(tuner->name(), c.expected_name) << c.spec;
  }
}

TEST(ParseAlgorithm, RejectsLooseNamesNamingTheToken) {
  struct Case {
    const char* name;
    const char* must_mention;
  };
  const Case cases[] = {
      {"mcts-typo", "\"typo\""},
      {"mctsx", "\"mctsx\""},
      {"mcts-fix2", "\"fix2\""},
      {"mcts-uct-prior", "\"prior\" conflicts with \"uct\""},
      {"mcts-bg-bce", "\"bce\" conflicts with \"bg\""},
      {"mcts-rnd-fix1", "\"fix1\" conflicts with \"rnd\""},
      {"mcts-rave-rave", "\"rave\" repeats"},
      {"mcts-", "unknown token \"\""},
      {"mcts--bg", "unknown token \"\""},
      {"mcts-UCT", "\"UCT\""},
      {"", "unknown algorithm"},
      {"greedy", "\"greedy\""},
      {"dta-bg", "\"dta-bg\""},
  };
  for (const Case& c : cases) {
    const StatusOr<AlgorithmChoice> choice = ParseAlgorithm(c.name);
    ASSERT_FALSE(choice.ok()) << c.name;
    EXPECT_EQ(choice.status().code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_NE(choice.status().message().find(c.must_mention),
              std::string::npos)
        << c.name << " -> " << choice.status().message();
  }
}

TEST(ParseAlgorithm, EveryMctsCombinationRoundTripsThroughItsName) {
  // 3 action policies x 3 rollouts x 3 extractions x RAVE x featurized
  // priors: each combination's name(), and the same tokens in reverse order,
  // parse back to the combination.
  TuningContext ctx;
  ctx.workload = &LoadBundle("toy").workload;
  ctx.candidates = &LoadBundle("toy").candidates;
  using Policy = MctsOptions::ActionPolicy;
  using Rollout = MctsOptions::RolloutPolicy;
  using Extraction = MctsOptions::Extraction;
  struct RolloutCase {
    Rollout policy;
    int step;
  };
  int combinations = 0;
  for (Policy policy : {Policy::kUct, Policy::kEpsGreedyPrior,
                        Policy::kBoltzmann}) {
    for (RolloutCase rollout : {RolloutCase{Rollout::kRandomStep, 0},
                                RolloutCase{Rollout::kFixedStep, 0},
                                RolloutCase{Rollout::kFixedStep, 1}}) {
      for (Extraction extraction :
           {Extraction::kBce, Extraction::kBestGreedy, Extraction::kHybrid}) {
        for (bool rave : {false, true}) {
          for (bool feat : {false, true}) {
            MctsOptions options;
            options.action_policy = policy;
            options.rollout_policy = rollout.policy;
            options.fixed_rollout_step = rollout.step;
            options.extraction = extraction;
            options.use_rave = rave;
            options.featurized_priors = feat;
            const std::string name = MctsTuner(ctx, options).name();
            std::vector<std::string> tokens = Split(name.substr(5), '-');
            std::reverse(tokens.begin(), tokens.end());
            std::string reordered = "mcts";
            for (const std::string& token : tokens) reordered += "-" + token;
            for (const std::string& spelling : {name, reordered}) {
              const StatusOr<AlgorithmChoice> choice =
                  ParseAlgorithm(spelling);
              ASSERT_TRUE(choice.ok()) << spelling;
              EXPECT_EQ(choice->family, AlgorithmChoice::Family::kMcts);
              const MctsOptions& parsed = choice->mcts;
              EXPECT_EQ(parsed.action_policy, policy) << spelling;
              EXPECT_EQ(parsed.rollout_policy, rollout.policy) << spelling;
              EXPECT_EQ(parsed.fixed_rollout_step, rollout.step) << spelling;
              EXPECT_EQ(parsed.extraction, extraction) << spelling;
              EXPECT_EQ(parsed.use_rave, rave) << spelling;
              EXPECT_EQ(parsed.featurized_priors, feat) << spelling;
            }
            ++combinations;
          }
        }
      }
    }
  }
  EXPECT_EQ(combinations, 108);
}

TEST(ParseAlgorithm, OnlyMctsAndTheBanditsAreRandomized) {
  for (const char* name : {"mcts", "mcts-uct-rnd-bce", "dba-bandits",
                           "no-dba"}) {
    EXPECT_TRUE(ParseAlgorithm(name)->randomized()) << name;
  }
  for (const char* name : {"vanilla-greedy", "two-phase-greedy",
                           "autoadmin-greedy", "dta", "relaxation"}) {
    EXPECT_FALSE(ParseAlgorithm(name)->randomized()) << name;
  }
}

TEST(MakeTuner, SeedIsPropagatedToRandomizedTuners) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  RunSpec spec;
  spec.workload = "tpch";
  spec.algorithm = "mcts";
  spec.budget = 120;
  spec.max_indexes = 5;
  spec.seed = 1;
  RunOutcome a = RunOnce(bundle, spec);
  RunOutcome b = RunOnce(bundle, spec);
  EXPECT_DOUBLE_EQ(a.true_improvement, b.true_improvement);
}

TEST(BenchScale, DefaultIsReduced) {
  unsetenv("BATI_SCALE");
  BenchScale scale = GetBenchScale();
  EXPECT_EQ(scale.large_budgets.size(), 3u);
  EXPECT_EQ(scale.seeds.size(), 2u);
}

TEST(BenchScale, FullMatchesPaperGrid) {
  setenv("BATI_SCALE", "full", 1);
  BenchScale scale = GetBenchScale();
  EXPECT_EQ(scale.large_budgets,
            (std::vector<int64_t>{1000, 2000, 3000, 4000, 5000}));
  EXPECT_EQ(scale.small_budgets,
            (std::vector<int64_t>{50, 100, 200, 500, 1000}));
  EXPECT_EQ(scale.cardinalities, (std::vector<int>{5, 10, 20}));
  EXPECT_EQ(scale.seeds.size(), 5u);
  unsetenv("BATI_SCALE");
}

TEST(RunOnce, ReportsTimeBreakdownAndTrace) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  RunSpec spec;
  spec.workload = "tpch";
  spec.algorithm = "dba-bandits";
  spec.budget = 100;
  spec.max_indexes = 5;
  RunOutcome outcome = RunOnce(bundle, spec);
  EXPECT_GT(outcome.whatif_seconds, 0.0);
  EXPECT_GT(outcome.other_seconds, 0.0);
  EXPECT_FALSE(outcome.trace.empty());
}

// Every tuner that exposes a progress trace records the final improvement
// point: the trace ends exactly at the returned recommendation's derived
// improvement (so convergence plots terminate at the reported result).
TEST(RunOnce, TraceEndsAtReportedImprovement) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  for (const char* algo :
       {"vanilla-greedy", "two-phase-greedy", "autoadmin-greedy", "mcts",
        "dba-bandits", "no-dba"}) {
    RunSpec spec;
    spec.workload = "tpch";
    spec.algorithm = algo;
    spec.budget = 120;
    spec.max_indexes = 5;
    RunOutcome outcome = RunOnce(bundle, spec);
    ASSERT_FALSE(outcome.trace.empty()) << algo;
    EXPECT_DOUBLE_EQ(outcome.trace.back(), outcome.derived_improvement)
        << algo;
  }
}

// Engine counters surface through the harness and stay consistent with the
// run's own accounting.
TEST(RunOnce, EngineStatsAreSurfaced) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  RunSpec spec;
  spec.workload = "tpch";
  spec.algorithm = "vanilla-greedy";
  spec.budget = 100;
  spec.max_indexes = 5;
  RunOutcome outcome = RunOnce(bundle, spec);
  EXPECT_EQ(outcome.engine.what_if_calls, outcome.calls_used);
  EXPECT_EQ(outcome.engine.index_entries, outcome.calls_used);
  EXPECT_GT(outcome.engine.derived_lookups, 0);
  EXPECT_DOUBLE_EQ(outcome.engine.simulated_whatif_seconds,
                   outcome.whatif_seconds);
}

TEST(McstExtensions, AllVariantsRespectBudget) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  for (const char* algo : {"mcts-boltz", "mcts-prior-hybrid",
                           "mcts-prior-bg-rave", "mcts-prior-bg-feat",
                           "mcts-boltz-hybrid-rave"}) {
    RunSpec spec;
    spec.workload = "tpch";
    spec.algorithm = algo;
    spec.budget = 150;
    spec.max_indexes = 5;
    RunOutcome outcome = RunOnce(bundle, spec);
    EXPECT_LE(outcome.calls_used, 150) << algo;
    EXPECT_GE(outcome.true_improvement, -1e-9) << algo;
  }
}

TEST(McstExtensions, HybridExtractionNeverWorseThanBgOrBceInDerivedTerms) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  TuningContext ctx;
  ctx.workload = &bundle.workload;
  ctx.candidates = &bundle.candidates;
  ctx.constraints.max_indexes = 5;
  double results[3];
  MctsOptions::Extraction kinds[] = {MctsOptions::Extraction::kBce,
                                     MctsOptions::Extraction::kBestGreedy,
                                     MctsOptions::Extraction::kHybrid};
  for (int i = 0; i < 3; ++i) {
    CostService service(bundle.optimizer.get(), &bundle.workload,
                        &bundle.candidates.indexes, 150);
    MctsOptions options;
    options.seed = 17;  // same seed -> same search, different extraction
    options.extraction = kinds[i];
    MctsTuner tuner(ctx, options);
    TuningResult result = tuner.Tune(service);
    results[i] = result.derived_improvement;
  }
  EXPECT_GE(results[2], results[0] - 1e-9);  // hybrid >= BCE
  EXPECT_GE(results[2], results[1] - 1e-9);  // hybrid >= BG
}

}  // namespace
}  // namespace bati
