// Property test for the session subsystem's core invariant: running N
// sessions concurrently through a SessionManager yields exactly the runs
// a sequential loop of RunOnce() produces — byte-identical layout CSVs
// (the engine's full what-if call trace) and equal RunOutcomes — because
// sessions share only immutable state (the bundle and the pure what-if
// optimizer).
//
// Every algorithm family is exercised. Run this under the TSan build
// (BATI_SANITIZE=thread) to prove independence, not just observe it.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "whatif/cost_service.h"

namespace bati {
namespace {

constexpr int kParallelism = 4;

const char* kAlgorithms[] = {
    "vanilla-greedy", "two-phase-greedy", "autoadmin-greedy",
    "dba-bandits",    "no-dba",           "dta",
    "relaxation",     "mcts",
};

std::vector<RunSpec> AllAlgorithmSpecs(const std::string& workload,
                                       int64_t budget) {
  std::vector<RunSpec> specs;
  for (const char* algorithm : kAlgorithms) {
    RunSpec spec;
    spec.workload = workload;
    spec.algorithm = algorithm;
    spec.budget = budget;
    spec.max_indexes = 5;
    spec.seed = 11;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// The sequential reference: each spec through a solo TuningSession (the
/// RunOnce path), capturing the layout CSV while the service is alive.
struct Reference {
  RunOutcome outcome;
  std::string layout_csv;
};

Reference RunSequential(const WorkloadBundle& bundle, const RunSpec& spec) {
  SessionOptions options;
  options.capture_layout_csv = true;
  TuningSession session(bundle, spec, options);
  Reference ref;
  ref.outcome = session.Run();
  ref.layout_csv = session.layout_csv();
  return ref;
}

void ExpectOutcomeEq(const RunOutcome& a, const RunOutcome& b,
                     const std::string& label) {
  EXPECT_DOUBLE_EQ(a.true_improvement, b.true_improvement) << label;
  EXPECT_DOUBLE_EQ(a.derived_improvement, b.derived_improvement) << label;
  EXPECT_EQ(a.calls_used, b.calls_used) << label;
  EXPECT_EQ(a.config_size, b.config_size) << label;
  EXPECT_DOUBLE_EQ(a.whatif_seconds, b.whatif_seconds) << label;
  EXPECT_DOUBLE_EQ(a.other_seconds, b.other_seconds) << label;
  EXPECT_EQ(a.trace, b.trace) << label;
  EXPECT_EQ(a.engine.what_if_calls, b.engine.what_if_calls) << label;
  EXPECT_EQ(a.engine.cache_hits, b.engine.cache_hits) << label;
  EXPECT_EQ(a.engine.derived_lookups, b.engine.derived_lookups) << label;
}

class SessionDeterminismTest : public testing::TestWithParam<const char*> {};

TEST_P(SessionDeterminismTest, ConcurrentEqualsSequential) {
  const std::string workload = GetParam();
  // tpch runs at a smaller budget to keep eight concurrent algorithm runs
  // affordable inside the sanitizer legs.
  const int64_t budget = workload == "toy" ? 60 : 200;
  const WorkloadBundle& bundle = LoadBundle(workload);
  const std::vector<RunSpec> specs = AllAlgorithmSpecs(workload, budget);

  std::vector<Reference> sequential;
  sequential.reserve(specs.size());
  for (const RunSpec& spec : specs) {
    sequential.push_back(RunSequential(bundle, spec));
  }

  SessionManagerOptions options;
  options.parallelism = kParallelism;
  options.session.capture_layout_csv = true;
  SessionManager manager(options);
  for (const RunSpec& spec : specs) manager.Submit(spec);
  std::vector<SessionResult> concurrent = manager.Drain();

  ASSERT_EQ(concurrent.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const std::string label = workload + "/" + specs[i].algorithm;
    ASSERT_TRUE(concurrent[i].status.ok()) << label;
    // Byte equality of the layout CSV means the concurrent session made
    // the same what-if calls with the same results in the same order.
    EXPECT_EQ(concurrent[i].layout_csv, sequential[i].layout_csv) << label;
    ExpectOutcomeEq(concurrent[i].outcome, sequential[i].outcome, label);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SessionDeterminismTest,
                         testing::Values("toy", "tpch"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// Repeating the concurrent batch must also be self-consistent: two
// manager runs of the same specs agree with each other (scheduling noise
// leaves no trace in results).
TEST(SessionDeterminismTest, RepeatedConcurrentBatchesAgree) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  (void)bundle;
  const std::vector<RunSpec> specs = AllAlgorithmSpecs("toy", 60);

  auto run_batch = [&specs] {
    SessionManagerOptions options;
    options.parallelism = kParallelism;
    options.session.capture_layout_csv = true;
    SessionManager manager(options);
    for (const RunSpec& spec : specs) manager.Submit(spec);
    return manager.Drain();
  };
  std::vector<SessionResult> first = run_batch();
  std::vector<SessionResult> second = run_batch();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].layout_csv, second[i].layout_csv)
        << specs[i].algorithm;
    ExpectOutcomeEq(first[i].outcome, second[i].outcome,
                    specs[i].algorithm);
  }
}

}  // namespace
}  // namespace bati
