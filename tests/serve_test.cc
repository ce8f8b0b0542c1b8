// Tests for the serve subsystem: strict event parsing, the sliding-window
// workload observer and its drift detector, per-tenant admission control,
// the safety-guarded index lifecycle, the serve checkpoint format, and the
// daemon itself — including the acceptance properties: a workload mix
// shift triggers a drift re-tune, a regressing candidate is rolled back
// (never shipped), output is byte-reproducible across runs and independent
// of worker parallelism, and a SIGTERM-style checkpoint/resume converges
// to the exact end state of an uninterrupted run.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "pinned_results.h"
#include "serve/admission.h"
#include "serve/daemon.h"
#include "serve/event_json.h"
#include "serve/lifecycle.h"
#include "serve/serve_checkpoint.h"
#include "serve/workload_observer.h"
#include "session/bundle_registry.h"
#include "session/spec_json.h"
#include "signal/deployment_signal.h"
#include "signal/exec_signal.h"

namespace bati {
namespace {

int CountOccurrences(const std::string& text, const std::string& needle) {
  int count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

int CountLines(const std::string& text) {
  return CountOccurrences(text, "\n");
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t pos = text.find('\n'); pos != std::string::npos;
       pos = text.find('\n', start)) {
    lines.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Event JSON

TEST(ServeEventJsonTest, ParsesEveryEventType) {
  ServeEvent event;
  ASSERT_TRUE(ParseServeEventJson(
                  R"({"type":"query","tenant":"t","query":3,"weight":2.5})",
                  1, &event)
                  .ok());
  EXPECT_EQ(event.type, ServeEventType::kQuery);
  EXPECT_EQ(event.tenant, "t");
  EXPECT_EQ(event.query_id, 3);
  EXPECT_DOUBLE_EQ(event.weight, 2.5);

  ASSERT_TRUE(
      ParseServeEventJson(
          R"({"type":"register","tenant":"t","workload":"toy","budget":40,)"
          R"("queue_quota":2,"budget_quota":100,"tune":true})",
          1, &event)
          .ok());
  EXPECT_EQ(event.type, ServeEventType::kRegister);
  EXPECT_EQ(event.spec.workload, "toy");
  EXPECT_EQ(event.spec.budget, 40);
  EXPECT_EQ(event.queue_quota, 2);
  EXPECT_EQ(event.budget_quota, 100);
  EXPECT_TRUE(event.tune_on_register);

  ASSERT_TRUE(ParseServeEventJson(
                  R"({"type":"tune","tenant":"t","budget":9,"seed":7,)"
                  R"("algorithm":"vanilla-greedy"})",
                  1, &event)
                  .ok());
  EXPECT_EQ(event.type, ServeEventType::kTune);
  EXPECT_EQ(event.budget_override, 9);
  EXPECT_EQ(event.seed_override, 7);
  EXPECT_EQ(event.algorithm_override, "vanilla-greedy");

  ASSERT_TRUE(ParseServeEventJson(
                  R"({"type":"deploy","tenant":"t","config":"1 4 7"})", 1,
                  &event)
                  .ok());
  EXPECT_EQ(event.type, ServeEventType::kDeploy);
  EXPECT_EQ(event.config, (std::vector<size_t>{1, 4, 7}));

  // The empty config string is the base (no-index) configuration.
  ASSERT_TRUE(ParseServeEventJson(
                  R"({"type":"deploy","tenant":"t","config":""})", 1, &event)
                  .ok());
  EXPECT_TRUE(event.config.empty());

  ASSERT_TRUE(
      ParseServeEventJson(R"({"type":"advance","seconds":30})", 1, &event)
          .ok());
  EXPECT_EQ(event.type, ServeEventType::kAdvance);
  EXPECT_DOUBLE_EQ(event.seconds, 30.0);

  ASSERT_TRUE(ParseServeEventJson(R"({"type":"drain"})", 1, &event).ok());
  EXPECT_EQ(event.type, ServeEventType::kDrain);
}

TEST(ServeEventJsonTest, RejectsMalformedEventsWithLineNumbers) {
  // Every rejection is an InvalidArgument carrying the stream line number,
  // so the daemon's structured error lines point at the offending input.
  const struct {
    const char* line;
    const char* fragment;
  } kCases[] = {
      {R"({"type":"resize"})", "unknown event type"},
      {R"({"tenant":"t","query":1})", "\"type\" is required"},
      {R"({"type":"query","tenant":"t"})", "require \"query\""},
      {R"({"type":"query","tenant":"t","query":-1})", "out of range"},
      {R"({"type":"query","tenant":"t","query":1.5})", "integer"},
      {R"({"type":"query","tenant":"t","query":4294967296})", "out of range"},
      {R"({"type":"query","tenant":"t","query":"one"})", "number"},
      {R"({"type":"query","tenant":"t","query":0,"weight":0})", "positive"},
      {R"({"type":"query","tenant":"t","query":0,"color":"red"})",
       "unknown key"},
      {R"({"type":"query","query":0})", "\"tenant\" is required"},
      {R"({"type":"tune","tenant":"t","algorithm":"qlearning"})",
       "unknown algorithm"},
      {R"({"type":"deploy","tenant":"t"})", "require \"config\""},
      {R"({"type":"deploy","tenant":"t","config":"3 1"})", "ascending"},
      {R"({"type":"deploy","tenant":"t","config":"1 x"})", "non-negative"},
      {R"({"type":"advance"})", "require \"seconds\""},
      {R"({"type":"advance","seconds":0})", "positive"},
      {R"({"type":"drain","tenant":"t"})", "unknown key"},
      {R"({"type":"register","tenant":"t","workload":"toy",)"
       R"("budget":-5})",
       "budget"},
      {R"({"type":"query","tenant":"t","query":0} trailing)", "trailing"},
      {R"({"type":"query","tenant":"t","nested":{"a":1}})", "nested"},
      {R"(not json at all)", "JSON object"},
  };
  for (const auto& test_case : kCases) {
    ServeEvent event;
    const Status st = ParseServeEventJson(test_case.line, 17, &event);
    EXPECT_FALSE(st.ok()) << test_case.line;
    EXPECT_NE(st.message().find("line 17"), std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find(test_case.fragment), std::string::npos)
        << test_case.line << " -> " << st.message();
  }
}

// ---------------------------------------------------------------------------
// Workload observer

ObserverOptions SmallObserver(size_t window, size_t stride,
                              size_t min_events) {
  ObserverOptions options;
  options.window = window;
  options.stride = stride;
  options.min_events = min_events;
  return options;
}

TEST(WorkloadObserverTest, DistributionIsExactWhileSupportIsSmall) {
  WorkloadObserver observer(SmallObserver(8, 2, 2), /*num_queries=*/4);
  observer.Observe(0, 2.0);
  observer.Observe(1, 1.0);
  const std::vector<double> dist = observer.Distribution();
  ASSERT_EQ(dist.size(), 4u);
  EXPECT_DOUBLE_EQ(dist[0], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(dist[2], 0.0);
  EXPECT_DOUBLE_EQ(dist[3], 0.0);
}

TEST(WorkloadObserverTest, EvictionRemovesSketchContribution) {
  WorkloadObserver observer(SmallObserver(3, 1, 1), /*num_queries=*/4);
  observer.Observe(0, 1.0);
  observer.Observe(0, 1.0);
  observer.Observe(1, 1.0);
  observer.Observe(2, 1.0);
  observer.Observe(2, 1.0);
  // The window holds the last three observations: 1, 2, 2. The two
  // evicted 0-observations must have left the sketch entirely.
  EXPECT_EQ(observer.window_size(), 3u);
  const std::vector<double> dist = observer.Distribution();
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(dist[2], 2.0 / 3.0);
  const std::vector<std::pair<int, double>> support =
      observer.WindowSupport();
  ASSERT_EQ(support.size(), 2u);
  EXPECT_EQ(support[0], std::make_pair(1, 1.0));
  EXPECT_EQ(support[1], std::make_pair(2, 2.0));
}

TEST(WorkloadObserverTest, DriftIsTotalVariationAgainstReference) {
  WorkloadObserver observer(SmallObserver(8, 2, 2), /*num_queries=*/4);
  observer.SetReference(std::vector<double>(4, 0.25));
  for (int i = 0; i < 8; ++i) observer.Observe(0, 1.0);
  // Window is all query 0; reference is uniform. TV distance is
  // 0.5 * (|1 - 0.25| + 3 * |0 - 0.25|) = 0.75.
  EXPECT_DOUBLE_EQ(observer.EvaluateDrift(), 0.75);
}

TEST(WorkloadObserverTest, DriftChecksAreStridedAndGated) {
  WorkloadObserver observer(
      SmallObserver(16, /*stride=*/2, /*min_events=*/4), /*num_queries=*/2);
  // No reference yet: never due, however many events arrive.
  for (int i = 0; i < 6; ++i) observer.Observe(0, 1.0);
  EXPECT_FALSE(observer.DriftCheckDue());
  // Installing a reference restarts the stride from the tuning point; a
  // full stride of fresh observations must elapse before the first check.
  observer.SetReference({0.5, 0.5});
  EXPECT_FALSE(observer.DriftCheckDue());
  observer.Observe(0, 1.0);
  EXPECT_FALSE(observer.DriftCheckDue());
  observer.Observe(0, 1.0);
  EXPECT_TRUE(observer.DriftCheckDue());
  // Evaluating marks the check point; the stride must elapse again.
  observer.EvaluateDrift();
  EXPECT_FALSE(observer.DriftCheckDue());
  observer.Observe(0, 1.0);
  observer.Observe(0, 1.0);
  EXPECT_TRUE(observer.DriftCheckDue());
  // A cold window (below min_events) is never evidence of a shift.
  WorkloadObserver cold(SmallObserver(16, 2, 4), /*num_queries=*/2);
  cold.SetReference({0.5, 0.5});
  cold.Observe(0, 1.0);
  cold.Observe(0, 1.0);
  EXPECT_FALSE(cold.DriftCheckDue());
}

TEST(WorkloadObserverTest, SerializeRoundTripsWindowAndReference) {
  WorkloadObserver observer(SmallObserver(8, 2, 2), /*num_queries=*/4);
  observer.Observe(0, 0.1);  // not exactly representable: hex floats matter
  observer.Observe(2, 3.5);
  observer.Observe(2, 1.0);
  observer.CaptureReference();
  observer.Observe(1, 2.0);

  WorkloadObserver restored(SmallObserver(8, 2, 2), /*num_queries=*/4);
  ASSERT_TRUE(restored.Deserialize(SplitLines(observer.Serialize())));
  EXPECT_EQ(restored.Serialize(), observer.Serialize());
  EXPECT_EQ(restored.Distribution(), observer.Distribution());
  EXPECT_EQ(restored.window_size(), observer.window_size());
  EXPECT_EQ(restored.events_seen(), observer.events_seen());
  EXPECT_TRUE(restored.has_reference());

  WorkloadObserver bad(SmallObserver(8, 2, 2), /*num_queries=*/4);
  EXPECT_FALSE(bad.Deserialize({"counts nonsense"}));
}

// ---------------------------------------------------------------------------
// Admission control

TEST(TenantAdmissionTest, QueueQuotaIsUnavailable) {
  TenantAdmission admission(/*queue_quota=*/2, /*budget_quota=*/0);
  EXPECT_TRUE(admission.Admit(10).ok());
  EXPECT_TRUE(admission.Admit(10).ok());
  const Status st = admission.Admit(10);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(admission.pending(), 2);
  // Settling a run frees its slot.
  admission.Settle(/*reserved_budget=*/10, /*calls_used=*/10);
  EXPECT_TRUE(admission.Admit(10).ok());
}

TEST(TenantAdmissionTest, BudgetQuotaReservesAndRefunds) {
  TenantAdmission admission(/*queue_quota=*/8, /*budget_quota=*/100);
  // Admission reserves the full requested budget up front...
  EXPECT_TRUE(admission.Admit(60).ok());
  EXPECT_EQ(admission.budget_used(), 60);
  const Status st = admission.Admit(50);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // ...and refunds the unspent part when the run settles.
  admission.Settle(/*reserved_budget=*/60, /*calls_used=*/25);
  EXPECT_EQ(admission.budget_used(), 25);
  EXPECT_TRUE(admission.Admit(50).ok());
  // A zero budget quota means unlimited.
  TenantAdmission unlimited(/*queue_quota=*/1, /*budget_quota=*/0);
  EXPECT_TRUE(unlimited.Admit(1 << 30).ok());
}

// ---------------------------------------------------------------------------
// Index lifecycle

TEST(IndexLifecycleTest, ShipsAndDiffsAgainstDeployed) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  ASSERT_GE(bundle.candidates.indexes.size(), 2u);
  // A huge safety bound never rolls back, isolating the diff logic.
  IndexLifecycle lifecycle(/*safety_bound=*/1e9);
  const std::vector<std::pair<int, double>> no_window;
  WhatIfSignal whatif;

  LifecycleDecision decision =
      lifecycle.Apply(bundle, no_window, {0}, &whatif);
  EXPECT_EQ(decision.action, LifecycleDecision::Action::kShipped);
  EXPECT_EQ(decision.created, (std::vector<size_t>{0}));
  EXPECT_TRUE(decision.dropped.empty());
  EXPECT_EQ(lifecycle.deployed(), (std::vector<size_t>{0}));

  decision = lifecycle.Apply(bundle, no_window, {1}, &whatif);
  EXPECT_EQ(decision.action, LifecycleDecision::Action::kShipped);
  EXPECT_EQ(decision.created, (std::vector<size_t>{1}));
  EXPECT_EQ(decision.dropped, (std::vector<size_t>{0}));
  EXPECT_EQ(lifecycle.deployed(), (std::vector<size_t>{1}));

  // Re-deploying the active configuration is a no-op.
  decision = lifecycle.Apply(bundle, no_window, {1}, &whatif);
  EXPECT_EQ(decision.action, LifecycleDecision::Action::kNoChange);
  EXPECT_TRUE(decision.created.empty());
  EXPECT_TRUE(decision.dropped.empty());
}

TEST(IndexLifecycleTest, RollbackKeepsDeployedConfiguration) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  // An impossible bound (< -100% regression) rejects every change: the
  // candidate is evaluated but never shipped, and deployed() is untouched
  // — the DBA-bandits guarantee in its most aggressive setting.
  IndexLifecycle lifecycle(/*safety_bound=*/-1.0);
  WhatIfSignal whatif;
  const LifecycleDecision decision =
      lifecycle.Apply(bundle, /*window=*/{}, {0}, &whatif);
  EXPECT_EQ(decision.action, LifecycleDecision::Action::kRollback);
  EXPECT_TRUE(lifecycle.deployed().empty());
  EXPECT_GT(decision.deployed_cost, 0.0);
  EXPECT_GT(decision.candidate_cost, 0.0);
  EXPECT_NEAR(decision.regression,
              (decision.candidate_cost - decision.deployed_cost) /
                  decision.deployed_cost,
              1e-12);
}

/// A signal that counts its evaluations and reports fixed costs: the
/// candidate always halves the deployed cost.
class CountingSignal : public DeploymentSignal {
 public:
  SignalCosts Evaluate(const WorkloadBundle&,
                       const std::vector<std::pair<int, double>>&,
                       const std::vector<size_t>&,
                       const std::vector<size_t>&) override {
    ++evaluations;
    SignalCosts costs;
    costs.deployed = costs.whatif_deployed = 10.0;
    costs.candidate = costs.whatif_candidate = 5.0;
    return costs;
  }

  int evaluations = 0;
};

TEST(IndexLifecycleTest, NoChangeConsultsNoSignal) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  IndexLifecycle lifecycle(/*safety_bound=*/0.02);
  CountingSignal signal;

  // The empty candidate equals the empty deployment: decided unseen.
  LifecycleDecision decision = lifecycle.Apply(bundle, {}, {}, &signal);
  EXPECT_EQ(decision.action, LifecycleDecision::Action::kNoChange);
  EXPECT_EQ(signal.evaluations, 0);
  EXPECT_EQ(decision.regression, 0.0);
  EXPECT_EQ(decision.deployed_cost, 0.0);
  EXPECT_EQ(decision.candidate_cost, 0.0);

  // A changed candidate is evaluated exactly once.
  decision = lifecycle.Apply(bundle, {}, {0}, &signal);
  EXPECT_EQ(decision.action, LifecycleDecision::Action::kShipped);
  EXPECT_EQ(signal.evaluations, 1);
  EXPECT_EQ(decision.regression, -0.5);

  // Re-deploying it is again a no-change, calibrated or not.
  decision = lifecycle.Apply(bundle, {{0, 1.0}}, {0}, &signal,
                             /*calibration=*/3.0);
  EXPECT_EQ(decision.action, LifecycleDecision::Action::kNoChange);
  EXPECT_EQ(signal.evaluations, 1);
  EXPECT_EQ(decision.regression, 0.0);
  EXPECT_EQ(decision.deployed_cost, 0.0);
}

// ---------------------------------------------------------------------------
// Deployment signals

TEST(SignalTest, WhatIfSignalReproducesLifecycleCosts) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  const std::vector<std::pair<int, double>> window = {{0, 2.0}, {1, 0.5}};
  WhatIfSignal signal;
  const SignalCosts costs = signal.Evaluate(bundle, window, {}, {0});
  // The what-if signal IS its own reference: observed == derived, exactly.
  EXPECT_EQ(costs.deployed, costs.whatif_deployed);
  EXPECT_EQ(costs.candidate, costs.whatif_candidate);
  EXPECT_EQ(costs.deployed, WindowWhatIfCost(bundle, window, {}));
  EXPECT_EQ(costs.candidate, WindowWhatIfCost(bundle, window, {0}));
  // A lifecycle judging through it reports exactly these costs.
  IndexLifecycle lifecycle(/*safety_bound=*/1e9);
  const LifecycleDecision decision =
      lifecycle.Apply(bundle, window, {0}, &signal);
  EXPECT_EQ(decision.deployed_cost, costs.deployed);
  EXPECT_EQ(decision.candidate_cost, costs.candidate);
  EXPECT_EQ(decision.signal, SignalKind::kWhatIf);
  EXPECT_FALSE(decision.estimated);
  EXPECT_EQ(decision.calibration, 1.0);
}

TEST(SignalTest, KindNamesRoundTrip) {
  const SignalKind kinds[] = {SignalKind::kWhatIf,
                              SignalKind::kDeterministicExec,
                              SignalKind::kMeasured};
  for (SignalKind kind : kinds) {
    SignalKind parsed = SignalKind::kWhatIf;
    ASSERT_TRUE(ParseSignalKind(SignalKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  SignalKind parsed = SignalKind::kWhatIf;
  EXPECT_FALSE(ParseSignalKind("bogus", &parsed));
  EXPECT_FALSE(ParseSignalKind("", &parsed));
}

TEST(SignalTest, DeterministicExecSignalIsDeterministic) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  const std::vector<std::pair<int, double>> window = {{0, 1.0}, {1, 3.0}};
  SignalCosts first;
  for (int round = 0; round < 2; ++round) {
    MetricsRegistry metrics;
    ExecSignalOptions options;
    options.metrics = &metrics;
    SignalEngineCache engines(options);
    DeterministicExecSignal signal(&engines);
    ASSERT_TRUE(signal.Ready(bundle).ok());
    const SignalCosts costs = signal.Evaluate(bundle, window, {}, {0});
    EXPECT_GT(costs.deployed, 0.0);
    EXPECT_GT(costs.candidate, 0.0);
    EXPECT_GT(costs.whatif_deployed, 0.0);
    if (round == 0) {
      first = costs;
    } else {
      // A fresh engine over the same store replays the identical plans:
      // cost units are a pure function of plan + store, bit for bit.
      EXPECT_EQ(costs.deployed, first.deployed);
      EXPECT_EQ(costs.candidate, first.candidate);
    }
  }
}

TEST(SignalTest, OversizedStoreFailsReadyWithFallbackMessage) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  MetricsRegistry metrics;
  ExecSignalOptions options;
  options.metrics = &metrics;
  options.max_store_rows = 1000;  // far below toy's 2M-row table
  SignalEngineCache engines(options);
  DeterministicExecSignal det(&engines);
  const Status st = det.Ready(bundle);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("falling back"), std::string::npos);
  // The measured signal's test seam bypasses the store entirely.
  ExecSignalOptions seam = options;
  seam.measured_time_override = [](int, const std::vector<size_t>&) {
    return 1.0;
  };
  SignalEngineCache seam_engines(seam);
  MeasuredSignal measured(&seam_engines);
  EXPECT_TRUE(measured.Ready(bundle).ok());
}

// ---------------------------------------------------------------------------
// Serve checkpoint

ServeCheckpoint MakeCheckpoint() {
  ServeCheckpoint ckpt;
  ckpt.events_processed = 42;
  ckpt.clock = 0.1;  // not exactly representable: hex floats must hold it
  ckpt.next_tune_id = 5;
  ckpt.queries = 30;
  ckpt.tunes_submitted = 4;
  ckpt.tunes_applied = 2;
  ckpt.errors = 1;
  ckpt.drift_retunes = 1;
  ckpt.shipped = 2;
  ckpt.rollbacks = 1;
  ckpt.signal = SignalKind::kMeasured;
  ServeTenantState a;
  a.name = "alpha";
  a.spec_json = R"({"workload":"toy","algorithm":"mcts"})";
  a.queue_quota = 2;
  a.budget_quota = 500;
  a.pending = 1;
  a.budget_used = 123;
  a.generation = 3;
  a.calib_samples = 3;
  a.calib_sum = 2.565;  // not exactly representable: hex floats must hold
  a.deployed = {0, 4, 9};
  a.observer_state = "counts 0 0\nwindow 0\nreference 0\n";
  ServeTenantState b = a;
  b.name = "beta";
  b.deployed.clear();
  ckpt.tenants = {a, b};
  ServePendingTune ok;
  ok.tune_id = 3;
  ok.tenant = "alpha";
  ok.origin = "drift";
  ok.submit_clock = 17.25;
  ok.reserved_budget = 40;
  ok.positions = {0, 3, 7};
  ok.improvement = 1e-300;
  ok.calls_used = 38;
  ok.tune_seconds = 2.5;
  ServePendingTune failed;
  failed.tune_id = 4;
  failed.tenant = "beta";
  failed.origin = "tune";
  failed.failed = true;
  failed.error = "cancelled";
  ckpt.pending = {ok, failed};
  return ckpt;
}

TEST(ServeCheckpointTest, SerializeParseRoundTripIsExact) {
  const ServeCheckpoint ckpt = MakeCheckpoint();
  const std::string text = SerializeServeCheckpoint(ckpt);
  StatusOr<ServeCheckpoint> parsed = ParseServeCheckpoint(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, ckpt);
  // Serialization is a fixed point: the round trip loses nothing.
  EXPECT_EQ(SerializeServeCheckpoint(*parsed), text);
}

TEST(ServeCheckpointTest, ParseRejectsMalformedText) {
  EXPECT_FALSE(ParseServeCheckpoint("").ok());
  EXPECT_FALSE(ParseServeCheckpoint("not a checkpoint\n").ok());

  const ServeCheckpoint ckpt = MakeCheckpoint();
  std::string text = SerializeServeCheckpoint(ckpt);
  // Dropping the end marker (truncated write) must be detected.
  std::string truncated = text.substr(0, text.size() - 4);
  EXPECT_FALSE(ParseServeCheckpoint(truncated).ok());

  // Tenants must be name-sorted, pending tunes id-sorted and below the
  // next-tune watermark.
  ServeCheckpoint unsorted = ckpt;
  std::swap(unsorted.tenants[0], unsorted.tenants[1]);
  EXPECT_FALSE(
      ParseServeCheckpoint(SerializeServeCheckpoint(unsorted)).ok());
  ServeCheckpoint high_id = ckpt;
  high_id.pending[1].tune_id = high_id.next_tune_id;
  EXPECT_FALSE(
      ParseServeCheckpoint(SerializeServeCheckpoint(high_id)).ok());
}

TEST(ServeCheckpointTest, RejectsV2CheckpointsAsUnsupported) {
  // A pre-envelope (v2) checkpoint carried no checksum; it is rejected
  // with a message naming the version rather than trusted unchecked.
  const std::string v3 = SerializeServeCheckpoint(MakeCheckpoint());
  const size_t body_start = v3.find('\n', v3.find('\n') + 1) + 1;
  const std::string v2 = "bati-serve v2\n" + v3.substr(body_start);
  const StatusOr<ServeCheckpoint> parsed = ParseServeCheckpoint(v2);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("unsupported version v2"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(ServeCheckpointTest, SaveLoadRoundTripAndMissingFile) {
  const std::string path =
      testing::TempDir() + "/bati_serve_checkpoint_test.ckpt";
  const ServeCheckpoint ckpt = MakeCheckpoint();
  ASSERT_TRUE(SaveServeCheckpoint(ckpt, path).ok());
  StatusOr<ServeCheckpoint> loaded = LoadServeCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, ckpt);
  const StatusOr<ServeCheckpoint> missing =
      LoadServeCheckpoint(testing::TempDir() + "/no_such_checkpoint.ckpt");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Daemon

/// Feeds `lines` to the daemon and returns the concatenated JSONL output,
/// including the EOF drain when `finish` is set.
std::string RunScript(ServeDaemon* daemon,
                      const std::vector<std::string>& lines,
                      bool finish = true) {
  std::string out;
  for (const std::string& line : lines) daemon->ProcessLine(line, &out);
  if (finish) daemon->Finish(&out);
  return out;
}

ServeOptions ToyOptions(int parallelism = 2) {
  ServeOptions options;
  options.parallelism = parallelism;
  return options;
}

/// `options` with a checkpoint file of its own under the test temp dir.
ServeOptions WithStateFile(ServeOptions options, const std::string& name) {
  options.state_path = testing::TempDir() + "/bati_serve_" + name + ".ckpt";
  return options;
}

/// Shuts `daemon` down and returns the checkpoint it wrote to `state_path`:
/// its serialized end state, byte for byte.
std::string ShutdownState(ServeDaemon* daemon, const std::string& state_path) {
  EXPECT_TRUE(daemon->Shutdown().ok());
  StatusOr<std::string> bytes = ReadFileToString(state_path);
  EXPECT_TRUE(bytes.ok()) << state_path;
  return bytes.ok() ? *bytes : std::string();
}

TEST(ServeDaemonTest, AnswersEveryEventWithOneLine) {
  ServeDaemon daemon(ToyOptions());
  const std::vector<std::string> script = {
      R"({"type":"register","tenant":"t0","workload":"toy",)"
      R"("algorithm":"vanilla-greedy","budget":40})",
      "",  // blank lines are ignored, not counted, not answered
      R"({"type":"query","tenant":"t0","query":0})",
      R"({"type":"query","tenant":"t0","query":1})",
      R"({"type":"drain"})",
  };
  const std::string out = RunScript(&daemon, script);
  EXPECT_EQ(CountLines(out), 4);
  EXPECT_EQ(daemon.events_processed(), 4);
  EXPECT_EQ(CountOccurrences(out, "\"type\":\"register\""), 1);
  EXPECT_NE(out.find("\"queries\":2"), std::string::npos);
  EXPECT_EQ(CountOccurrences(out, "\"type\":\"query\""), 2);
  EXPECT_NE(out.find("\"applied\":0"), std::string::npos);
}

TEST(ServeDaemonTest, EmitsStructuredErrorsAndKeepsServing) {
  ServeDaemon daemon(ToyOptions());
  std::string out;
  daemon.ProcessLine(R"({"type":"query","tenant":"ghost","query":0})", &out);
  EXPECT_NE(out.find("\"code\":\"not-found\""), std::string::npos);
  out.clear();
  daemon.ProcessLine(R"({"type":"warp"})", &out);
  EXPECT_NE(out.find("\"code\":\"invalid-argument\""), std::string::npos);
  EXPECT_NE(out.find("\"line\":2"), std::string::npos);
  out.clear();
  daemon.ProcessLine(
      R"({"type":"register","tenant":"bad name","workload":"toy"})", &out);
  EXPECT_NE(out.find("\"code\":\"invalid-argument\""), std::string::npos);
  out.clear();
  daemon.ProcessLine(
      R"({"type":"register","tenant":"t","workload":"nope"})", &out);
  EXPECT_NE(out.find("\"code\":\"not-found\""), std::string::npos);
  out.clear();
  daemon.ProcessLine(R"({"type":"register","tenant":"t","workload":"toy"})",
                     &out);
  EXPECT_NE(out.find("\"status\":\"ok\""), std::string::npos);
  out.clear();
  daemon.ProcessLine(R"({"type":"register","tenant":"t","workload":"toy"})",
                     &out);
  EXPECT_NE(out.find("\"code\":\"failed-precondition\""),
            std::string::npos);
  out.clear();
  daemon.ProcessLine(R"({"type":"query","tenant":"t","query":99})", &out);
  EXPECT_NE(out.find("\"code\":\"out-of-range\""), std::string::npos);
  // The daemon is still healthy after six rejected events.
  out.clear();
  daemon.ProcessLine(R"({"type":"query","tenant":"t","query":0})", &out);
  EXPECT_NE(out.find("\"type\":\"query\""), std::string::npos);
  out.clear();
  daemon.Finish(&out);
}

TEST(ServeDaemonTest, RejectsALooseMctsOverrideOnATune) {
  // A tune override with an unknown MCTS token is an invalid-argument error
  // line that names the token; nothing is queued and the tenant keeps
  // serving.
  ServeDaemon daemon(ToyOptions());
  std::string out;
  daemon.ProcessLine(R"({"type":"register","tenant":"t","workload":"toy"})",
                     &out);
  EXPECT_NE(out.find("\"status\":\"ok\""), std::string::npos);
  out.clear();
  daemon.ProcessLine(R"({"type":"tune","tenant":"t","algorithm":"mcts-typo"})",
                     &out);
  EXPECT_NE(out.find("\"code\":\"invalid-argument\""), std::string::npos)
      << out;
  EXPECT_NE(out.find("typo"), std::string::npos) << out;
  out.clear();
  daemon.ProcessLine(R"({"type":"drain"})", &out);
  EXPECT_NE(out.find("\"applied\":0"), std::string::npos) << out;
  out.clear();
  daemon.ProcessLine(R"({"type":"query","tenant":"t","query":0})", &out);
  EXPECT_NE(out.find("\"type\":\"query\""), std::string::npos);
  out.clear();
  daemon.Finish(&out);
}

TEST(ServeDaemonTest, AdmissionControlRejectsOverQuotaTunes) {
  ServeDaemon daemon(ToyOptions());
  std::string out;
  daemon.ProcessLine(
      R"({"type":"register","tenant":"t","workload":"toy",)"
      R"("algorithm":"vanilla-greedy","budget":40,"queue_quota":1,)"
      R"("budget_quota":100,"tune":true})",
      &out);
  EXPECT_NE(out.find("\"tune\":1"), std::string::npos);
  // The registration tune holds the single queue slot.
  out.clear();
  daemon.ProcessLine(R"({"type":"tune","tenant":"t"})", &out);
  EXPECT_NE(out.find("\"code\":\"unavailable\""), std::string::npos);
  // Draining applies (and settles) it, freeing the slot — but a request
  // beyond the remaining lifetime budget quota is a hard rejection.
  out.clear();
  daemon.ProcessLine(R"({"type":"drain"})", &out);
  EXPECT_NE(out.find("\"type\":\"tune-result\""), std::string::npos);
  out.clear();
  daemon.ProcessLine(R"({"type":"tune","tenant":"t","budget":1000})", &out);
  EXPECT_NE(out.find("\"code\":\"failed-precondition\""),
            std::string::npos);
  out.clear();
  daemon.ProcessLine(R"({"type":"tune","tenant":"t","budget":10})", &out);
  EXPECT_NE(out.find("\"status\":\"ok\""), std::string::npos);
  out.clear();
  daemon.Finish(&out);
}

TEST(ServeDaemonTest, DeployOfActiveConfigurationIsNoChange) {
  ServeDaemon daemon(ToyOptions());
  std::string out;
  daemon.ProcessLine(R"({"type":"register","tenant":"t","workload":"toy"})",
                     &out);
  out.clear();
  daemon.ProcessLine(R"({"type":"deploy","tenant":"t","config":""})", &out);
  EXPECT_NE(out.find("\"action\":\"no-change\""), std::string::npos);
  EXPECT_NE(out.find("\"regression\":0"), std::string::npos);
  out.clear();
  daemon.ProcessLine(R"({"type":"deploy","tenant":"t","config":"9999"})",
                     &out);
  EXPECT_NE(out.find("\"code\":\"out-of-range\""), std::string::npos);
  out.clear();
  daemon.Finish(&out);
}

/// The acceptance scenario: a tenant is tuned on a near-uniform tpch mix,
/// then the mix collapses onto queries {3, 5}. The observer must detect
/// the shift and trigger a drift re-tune; the initial recommendation must
/// ship; an injected regressing candidate (dropping every index) must be
/// rolled back by the safety guard.
std::vector<std::string> DriftScript() {
  std::vector<std::string> lines;
  lines.push_back(
      R"({"type":"register","tenant":"acme","workload":"tpch",)"
      R"("algorithm":"vanilla-greedy","budget":120,"tune":true})");
  // Apply the registration tune before any query arrives: the window is
  // empty, so the lifecycle weighs the whole workload uniformly and the
  // tuned configuration ships over the empty deployment.
  lines.push_back(R"({"type":"drain"})");
  // Phase 1: cycle through all 22 queries — near-uniform, no drift.
  for (int i = 0; i < 32; ++i) {
    lines.push_back(R"({"type":"query","tenant":"acme","query":)" +
                    std::to_string(i % 22) + "}");
  }
  // Phase 2: the mix collapses onto queries 3 and 5.
  for (int i = 0; i < 64; ++i) {
    lines.push_back(R"({"type":"query","tenant":"acme","query":)" +
                    std::to_string(i % 2 == 0 ? 3 : 5) + "}");
  }
  lines.push_back(R"({"type":"drain"})");
  // The regression drill: dropping every deployed index is guaranteed to
  // regress the window cost past any reasonable safety bound.
  lines.push_back(R"({"type":"deploy","tenant":"acme","config":""})");
  return lines;
}

ServeOptions DriftOptions(int parallelism = 2) {
  ServeOptions options;
  options.parallelism = parallelism;
  options.observer.window = 64;
  options.observer.stride = 8;
  options.observer.min_events = 16;
  options.observer.drift_threshold = 0.4;
  return options;
}

TEST(ServeDaemonTest, WorkloadDriftTriggersRetuneAndGuardRollsBack) {
  ServeDaemon daemon(DriftOptions());
  const std::string out = RunScript(&daemon, DriftScript());

  // Phase 2 triggered at least one drift re-tune, and its result was
  // applied (drain) as a drift-origin tune-result line.
  EXPECT_GE(CountOccurrences(out, "\"retune\":"), 1);
  EXPECT_GE(CountOccurrences(out, "\"origin\":\"drift\""), 1);
  // Phase 1 never triggered: the first re-tune fires on a phase-2 query
  // ack — one of the shifted queries, past the phase boundary (clock 32).
  std::string first_retune;
  for (const std::string& line : SplitLines(out)) {
    if (line.find("\"retune\":") != std::string::npos) {
      first_retune = line;
      break;
    }
  }
  ASSERT_FALSE(first_retune.empty());
  EXPECT_TRUE(first_retune.find("\"query\":3,") != std::string::npos ||
              first_retune.find("\"query\":5,") != std::string::npos)
      << first_retune;
  // The initial recommendation improved over the empty deployment and
  // shipped.
  EXPECT_GE(CountOccurrences(out, "\"action\":\"shipped\""), 1);
  // The injected regressing candidate was rolled back, never shipped: the
  // deploy ack is the last line and carries the rollback verdict.
  const std::vector<std::string> lines = SplitLines(out);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("\"action\":\"safety-rollback\""),
            std::string::npos)
      << lines.back();
  EXPECT_NE(lines.back().find("\"drop\":\"\""), std::string::npos);
}

TEST(ServeDaemonTest, OutputAndStateAreByteReproducible) {
  // Two fresh daemons over the same stream: identical output bytes and
  // identical serialized end state, despite two worker threads racing on
  // the tuning runs — application points depend only on the event stream.
  const ServeOptions options_a = WithStateFile(DriftOptions(), "repro_a");
  ServeDaemon first(options_a);
  const std::string out_first = RunScript(&first, DriftScript());
  const std::string state_first = ShutdownState(&first, options_a.state_path);
  const ServeOptions options_b = WithStateFile(DriftOptions(), "repro_b");
  ServeDaemon second(options_b);
  const std::string out_second = RunScript(&second, DriftScript());
  EXPECT_EQ(out_first, out_second);
  EXPECT_EQ(state_first, ShutdownState(&second, options_b.state_path));
}

std::vector<std::string> MultiTenantScript() {
  std::vector<std::string> lines;
  for (int t = 0; t < 2; ++t) {
    lines.push_back(R"({"type":"register","tenant":"t)" +
                    std::to_string(t) +
                    R"(","workload":"toy","algorithm":"vanilla-greedy",)"
                    R"("budget":40,"queue_quota":8,"tune":true})");
  }
  for (int i = 0; i < 24; ++i) {
    const std::string tenant = "t" + std::to_string(i % 2);
    lines.push_back(R"({"type":"query","tenant":")" + tenant +
                    R"(","query":)" + std::to_string(i % 2) + "}");
    if (i % 5 == 0) {
      lines.push_back(R"({"type":"tune","tenant":")" + tenant +
                      R"(","seed":)" + std::to_string(i) + "}");
    }
  }
  lines.push_back(R"({"type":"advance","seconds":100000})");
  lines.push_back(R"({"type":"drain"})");
  return lines;
}

TEST(ServeDaemonTest, OutputIsIndependentOfParallelism) {
  // The same multi-tenant stream at parallelism 1 and 4: worker
  // scheduling must never leak into the output or the end state. (Under
  // TSan this also hammers the worker/event-loop result handoff.)
  const ServeOptions serial_options =
      WithStateFile(ToyOptions(/*parallelism=*/1), "parallelism_1");
  ServeDaemon serial(serial_options);
  const std::string out_serial = RunScript(&serial, MultiTenantScript());
  const std::string state_serial =
      ShutdownState(&serial, serial_options.state_path);
  const ServeOptions wide_options =
      WithStateFile(ToyOptions(/*parallelism=*/4), "parallelism_4");
  ServeDaemon wide(wide_options);
  const std::string out_wide = RunScript(&wide, MultiTenantScript());
  EXPECT_EQ(out_serial, out_wide);
  EXPECT_EQ(state_serial, ShutdownState(&wide, wide_options.state_path));
  EXPECT_GE(CountOccurrences(out_wide, "\"type\":\"tune-result\""), 7);
}

TEST(ServeDaemonTest, CheckpointResumeConvergesToUninterruptedState) {
  const std::vector<std::string> script = {
      R"({"type":"register","tenant":"t","workload":"toy",)"
      R"("algorithm":"vanilla-greedy","budget":40,"tune":true})",
      R"({"type":"query","tenant":"t","query":0})",
      R"({"type":"query","tenant":"t","query":1})",
      R"({"type":"tune","tenant":"t","budget":30})",
      R"({"type":"query","tenant":"t","query":0})",
      R"({"type":"advance","seconds":100000})",
      R"({"type":"query","tenant":"t","query":1})",
      R"({"type":"drain"})",
  };

  // Reference: the uninterrupted run.
  ServeOptions options_a = ToyOptions();
  options_a.state_path = testing::TempDir() + "/bati_serve_resume_a.ckpt";
  ServeDaemon uninterrupted(options_a);
  const std::string out_full = RunScript(&uninterrupted, script);
  const std::string state_full =
      ShutdownState(&uninterrupted, options_a.state_path);

  // Interrupted run: SIGTERM after the explicit tune request, while that
  // run is still pending application — its result must ride along in the
  // checkpoint.
  ServeOptions options_b = ToyOptions();
  options_b.state_path = testing::TempDir() + "/bati_serve_resume_b.ckpt";
  std::string out_prefix;
  {
    ServeDaemon interrupted(options_b);
    for (size_t i = 0; i < 4; ++i) {
      interrupted.ProcessLine(script[i], &out_prefix);
    }
    ASSERT_TRUE(interrupted.Shutdown().ok());
  }
  StatusOr<ServeCheckpoint> ckpt =
      LoadServeCheckpoint(options_b.state_path);
  ASSERT_TRUE(ckpt.ok());
  EXPECT_EQ(ckpt->events_processed, 4);
  ASSERT_FALSE(ckpt->pending.empty());

  // Resume over the same stream: the processed prefix is skipped (no
  // output), and the suffix replays to the exact end state and bytes of
  // the uninterrupted run.
  ServeDaemon resumed(options_b);
  ASSERT_TRUE(resumed.Resume().ok());
  const std::string out_suffix = RunScript(&resumed, script);
  EXPECT_EQ(out_prefix + out_suffix, out_full);
  EXPECT_EQ(ShutdownState(&resumed, options_b.state_path), state_full);
}

TEST(ServeDaemonTest, ResumeRequiresAStateFile) {
  ServeDaemon no_path(ToyOptions());
  EXPECT_EQ(no_path.Resume().code(), StatusCode::kInvalidArgument);
  ServeOptions options = ToyOptions();
  options.state_path = testing::TempDir() + "/bati_serve_missing.ckpt";
  ServeDaemon missing(options);
  EXPECT_EQ(missing.Resume().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Daemon × deployment signals

/// The rollback drill: what-if says "ship", measured execution disagrees.
/// The deployed (empty) configuration "runs" in 1 simulated second per
/// query, every indexed candidate in 4 — a regression no derived cost
/// would predict.
ServeOptions MeasuredDrillOptions() {
  ServeOptions options = ToyOptions();
  options.signal = SignalKind::kMeasured;
  options.signal_options.measured_time_override =
      [](int, const std::vector<size_t>& positions) {
        return positions.empty() ? 1.0 : 4.0;
      };
  return options;
}

TEST(ServeDaemonTest, MeasuredSignalRollsBackWhatWhatIfWouldShip) {
  const std::vector<std::string> script = {
      R"({"type":"register","tenant":"t","workload":"toy"})",
      R"({"type":"deploy","tenant":"t","config":"0"})",
  };
  // Under the default what-if signal the candidate ships: one index over
  // none improves the derived cost.
  ServeDaemon whatif_daemon(ToyOptions());
  const std::string whatif_out = RunScript(&whatif_daemon, script);
  EXPECT_NE(whatif_out.find("\"action\":\"shipped\""), std::string::npos)
      << whatif_out;

  // The measured signal sees the regression and rolls it back — the
  // DBA-bandits never-regress-on-observed guarantee, closed-loop.
  ServeDaemon daemon(MeasuredDrillOptions());
  const std::string out = RunScript(&daemon, script);
  EXPECT_NE(out.find("\"action\":\"safety-rollback\""), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"signal\":\"measured\""), std::string::npos);
  EXPECT_NE(out.find("\"estimated\":false"), std::string::npos);

  // Both configuration sides contributed one observed/what-if sample, and
  // the learned ratio is far from the uncalibrated 1.0.
  EXPECT_EQ(daemon.metrics()
                .GetGauge("serve.tenant.t.calibration_samples")
                ->value(),
            2.0);
  const double ratio =
      daemon.metrics().GetGauge("serve.tenant.t.calibration")->value();
  EXPECT_GT(ratio, 0.0);
  EXPECT_NE(ratio, 1.0);
}

TEST(ServeDaemonTest, RedeployUnderMeasuredSignalConsultsNoSignal) {
  ServeOptions options = MeasuredDrillOptions();
  options.safety_bound = 1e9;  // ship despite the drill's regression
  ServeDaemon daemon(options);
  std::string out;
  daemon.ProcessLine(R"({"type":"register","tenant":"t","workload":"toy"})",
                     &out);
  out.clear();
  daemon.ProcessLine(R"({"type":"deploy","tenant":"t","config":"0"})", &out);
  EXPECT_NE(out.find("\"action\":\"shipped\""), std::string::npos) << out;
  MetricsRegistry& metrics = daemon.metrics();
  const double samples =
      metrics.GetGauge("serve.tenant.t.calibration_samples")->value();
  const int64_t evals = metrics.GetCounter("serve.signal.evals")->value();
  EXPECT_EQ(samples, 2.0);
  EXPECT_EQ(evals, 1);

  // The same configuration again: the what-if no-change line, byte for
  // byte, with no evaluation and no calibration sample behind it.
  out.clear();
  daemon.ProcessLine(R"({"type":"deploy","tenant":"t","config":"0"})", &out);
  EXPECT_EQ(out,
            R"({"type":"deploy","tenant":"t","action":"no-change",)"
            R"("regression":0,"create":"","drop":""})"
            "\n");
  EXPECT_EQ(metrics.GetGauge("serve.tenant.t.calibration_samples")->value(),
            samples);
  EXPECT_EQ(metrics.GetCounter("serve.signal.evals")->value(), evals);
  EXPECT_EQ(metrics.GetCounter("serve.signal.estimates")->value(), 0);
}

/// A small toy stream exercising one register-tune and one deploy — two
/// full signal evaluations, enough to prove reproducibility without
/// making the exec-backed tests expensive.
std::vector<std::string> SignalScript() {
  std::vector<std::string> lines;
  lines.push_back(
      R"({"type":"register","tenant":"t0","workload":"toy",)"
      R"("algorithm":"vanilla-greedy","budget":40,"tune":true})");
  for (int i = 0; i < 6; ++i) {
    lines.push_back(R"({"type":"query","tenant":"t0","query":)" +
                    std::to_string(i % 2) + "}");
  }
  lines.push_back(R"({"type":"drain"})");
  lines.push_back(R"({"type":"deploy","tenant":"t0","config":""})");
  return lines;
}

TEST(ServeDaemonTest, ExecDeterministicOutputIsByteReproducible) {
  const auto options = [](int parallelism) {
    ServeOptions o = ToyOptions(parallelism);
    o.signal = SignalKind::kDeterministicExec;
    return o;
  };
  const ServeOptions first_options =
      WithStateFile(options(/*parallelism=*/1), "exec_parallelism_1");
  ServeDaemon first(first_options);
  const std::string out_first = RunScript(&first, SignalScript());
  const std::string state_first =
      ShutdownState(&first, first_options.state_path);
  // A second replay, and one at a different parallelism: cost units come
  // from operator counters on deterministic plans over a seeded store, so
  // neither scheduling nor wall-clock can leak into the output.
  ServeDaemon second(options(/*parallelism=*/1));
  const std::string out_second = RunScript(&second, SignalScript());
  const ServeOptions wide_options =
      WithStateFile(options(/*parallelism=*/4), "exec_parallelism_4");
  ServeDaemon wide(wide_options);
  const std::string out_wide = RunScript(&wide, SignalScript());
  EXPECT_EQ(out_first, out_second);
  EXPECT_EQ(out_first, out_wide);
  EXPECT_EQ(state_first, ShutdownState(&wide, wide_options.state_path));
  EXPECT_GE(CountOccurrences(out_first, "\"signal\":\"exec-deterministic\""),
            2);
  EXPECT_GE(CountOccurrences(out_first, "\"estimated\":false"), 1);
  // The engines' operator counters surface through the daemon registry —
  // the same snapshot bati_serve --metrics writes.
  EXPECT_GT(
      first.metrics().GetCounter("exec.seqscan.rows")->value() +
          first.metrics().GetCounter("exec.index.entries")->value(),
      0);
}

/// A pinned exec-deterministic replay: a toy tenant the exec signal
/// prices, a tpch tenant beyond its store cap (every verdict falls back to
/// the calibrated what-if estimate), four explicit toy tune + deploy pairs
/// over repeated candidates, and a mix shift that fires drift re-tunes.
std::vector<std::string> PinnedExecScript() {
  std::vector<std::string> lines = {
      R"({"type":"register","tenant":"toy","workload":"toy",)"
      R"("algorithm":"vanilla-greedy","budget":40,"queue_quota":16,)"
      R"("tune":true})",
      R"({"type":"register","tenant":"big","workload":"tpch",)"
      R"("algorithm":"vanilla-greedy","budget":60,"queue_quota":16,)"
      R"("tune":true})",
      R"({"type":"drain"})",
  };
  const auto query = [&](const std::string& tenant, int q) {
    lines.push_back(R"({"type":"query","tenant":")" + tenant +
                    R"(","query":)" + std::to_string(q) + "}");
  };
  const char* const configs[] = {"0 3", "1", "0 6", "0 3"};
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 12; ++i) {
      query("toy", i % 2);
      query("big", (i + 5 * round) % 22);
    }
    lines.push_back(R"({"type":"tune","tenant":"toy","seed":)" +
                    std::to_string(round + 1) + "}");
    lines.push_back(R"({"type":"deploy","tenant":"toy","config":")" +
                    std::string(configs[round]) + R"("})");
  }
  // The mix collapses: toy onto query 1, tpch onto queries 3 and 5.
  for (int i = 0; i < 48; ++i) {
    query("toy", 1);
    query("big", i % 2 == 0 ? 3 : 5);
  }
  lines.push_back(R"({"type":"drain"})");
  lines.push_back(R"({"type":"deploy","tenant":"toy","config":""})");
  lines.push_back(R"({"type":"deploy","tenant":"big","config":""})");
  return lines;
}

/// The replay's output, captured before the exec signal memoized operator
/// work by resolved plan. No-change lines carry no signal fields: no signal
/// judges them. Plain query acknowledgements (no drift check) are left
/// out; kPinnedExecReplayLines counts every line.
constexpr int kPinnedExecReplayLines = 215;
constexpr char kPinnedExecReplay[] = R"pinned(
{"type":"register","tenant":"toy","workload":"toy","queries":2,"candidates":8,"tune":1,"status":"ok"}
{"type":"register","tenant":"big","workload":"tpch","queries":22,"candidates":121,"tune":2,"status":"ok"}
{"type":"tune-result","id":1,"tenant":"toy","origin":"register","clock":0,"improvement":79.13083518,"calls":40,"config":"0 6","action":"shipped","regression":-0.9517215169,"signal":"exec-deterministic","estimated":false,"deployed_cost":13293909.8,"candidate_cost":641809.8,"create":"0 6","drop":""}
{"type":"tune-result","id":2,"tenant":"big","origin":"register","clock":0,"improvement":7.42443655,"calls":60,"config":"0 2","action":"shipped","regression":-0.0742443655,"signal":"exec-deterministic","estimated":true,"calibration":1,"create":"0 2","drop":""}
{"type":"drain","applied":2,"clock":0}
{"type":"tune","tenant":"toy","id":3,"status":"ok"}
{"type":"deploy","tenant":"toy","action":"safety-rollback","regression":16.61254627,"signal":"exec-deterministic","estimated":false,"deployed_cost":3850858.8,"candidate_cost":67823428.8,"create":"","drop":""}
{"type":"query","tenant":"big","query":8,"clock":32,"drift":0.4545454545,"retune":4}
{"type":"query","tenant":"toy","query":1,"clock":39,"drift":0}
{"type":"query","tenant":"big","query":16,"clock":48,"drift":0.2708333333}
{"type":"tune","tenant":"toy","id":5,"status":"ok"}
{"type":"deploy","tenant":"toy","action":"safety-rollback","regression":19.71316113,"signal":"exec-deterministic","estimated":false,"deployed_cost":7701717.6,"candidate_cost":159526917.6,"create":"","drop":""}
{"type":"query","tenant":"toy","query":1,"clock":63,"drift":0}
{"type":"query","tenant":"big","query":17,"clock":64,"drift":0.40625,"retune":6}
{"type":"tune-result","id":3,"tenant":"toy","origin":"tune","clock":72,"improvement":79.13083518,"calls":40,"config":"0 6","action":"no-change","regression":0,"create":"","drop":""}
{"type":"tune","tenant":"toy","id":7,"status":"ok"}
{"type":"deploy","tenant":"toy","action":"no-change","regression":0,"create":"","drop":""}
{"type":"query","tenant":"big","query":18,"clock":80,"drift":0.16875}
{"type":"query","tenant":"toy","query":1,"clock":87,"drift":0}
{"type":"query","tenant":"big","query":4,"clock":96,"drift":0.2291666667}
{"type":"tune","tenant":"toy","id":8,"status":"ok"}
{"type":"deploy","tenant":"toy","action":"safety-rollback","regression":16.61254627,"signal":"exec-deterministic","estimated":false,"deployed_cost":15403435.2,"candidate_cost":271293715.2,"create":"","drop":""}
{"type":"tune-result","id":4,"tenant":"big","origin":"drift","clock":101,"improvement":10.92538793,"calls":60,"config":"0 2 3","action":"shipped","regression":-0.002997455799,"signal":"exec-deterministic","estimated":true,"calibration":1,"create":"3","drop":""}
{"type":"tune-result","id":5,"tenant":"toy","origin":"tune","clock":101,"improvement":79.13083518,"calls":40,"config":"0 6","action":"no-change","regression":0,"create":"","drop":""}
{"type":"query","tenant":"toy","query":1,"clock":111,"drift":0.07142857143}
{"type":"query","tenant":"big","query":5,"clock":112,"drift":0.2857142857}
{"type":"query","tenant":"toy","query":1,"clock":127,"drift":0.125}
{"type":"query","tenant":"big","query":5,"clock":128,"drift":0.34375}
{"type":"tune-result","id":6,"tenant":"big","origin":"drift","clock":129,"improvement":8.562275456,"calls":60,"config":"0 2 3","action":"no-change","regression":0,"create":"","drop":""}
{"type":"tune-result","id":7,"tenant":"toy","origin":"tune","clock":129,"improvement":79.13083518,"calls":40,"config":"0 6","action":"no-change","regression":0,"create":"","drop":""}
{"type":"query","tenant":"toy","query":1,"clock":143,"drift":0.1875}
{"type":"query","tenant":"big","query":5,"clock":144,"drift":0.4375,"retune":9}
{"type":"tune-result","id":8,"tenant":"toy","origin":"tune","clock":144,"improvement":79.13083518,"calls":40,"config":"0 6","action":"no-change","regression":0,"create":"","drop":""}
{"type":"query","tenant":"toy","query":1,"clock":159,"drift":0.25}
{"type":"query","tenant":"big","query":5,"clock":160,"drift":0.109375}
{"type":"query","tenant":"toy","query":1,"clock":175,"drift":0.3125}
{"type":"query","tenant":"big","query":5,"clock":176,"drift":0.234375}
{"type":"query","tenant":"toy","query":1,"clock":191,"drift":0.375}
{"type":"query","tenant":"big","query":5,"clock":192,"drift":0.359375}
{"type":"tune-result","id":9,"tenant":"big","origin":"drift","clock":192,"improvement":7.42443655,"calls":60,"config":"0 2","action":"shipped","regression":0.0006965362608,"signal":"exec-deterministic","estimated":true,"calibration":1,"create":"","drop":"3"}
{"type":"drain","applied":1,"clock":192}
{"type":"deploy","tenant":"toy","action":"safety-rollback","regression":20.38019028,"signal":"exec-deterministic","estimated":false,"deployed_cost":20802552,"candidate_cost":444762520,"create":"","drop":""}
{"type":"deploy","tenant":"big","action":"safety-rollback","regression":0.3598235728,"signal":"exec-deterministic","estimated":true,"calibration":1,"create":"","drop":""}
)pinned";

TEST(ServeDaemonTest, ExecDeterministicReplayMatchesPinnedOutput) {
  for (const int parallelism : {1, 4}) {
    ServeOptions options = DriftOptions(parallelism);
    options.signal = SignalKind::kDeterministicExec;
    ServeDaemon daemon(options);
    const std::string out = RunScript(&daemon, PinnedExecScript());
    EXPECT_EQ(CountLines(out), kPinnedExecReplayLines);
    std::string decisions;
    for (const std::string& line : SplitLines(out)) {
      const bool plain_query =
          line.rfind(R"({"type":"query",)", 0) == 0 &&
          line.find("\"drift\"") == std::string::npos;
      if (!plain_query) decisions += line + "\n";
    }
    ExpectPinnedLines(decisions, kPinnedExecReplay);
  }
}

TEST(ServeDaemonTest, SignalAndCalibrationSurviveCheckpointResume) {
  const std::vector<std::string> script = {
      R"({"type":"register","tenant":"t","workload":"toy"})",
      R"({"type":"deploy","tenant":"t","config":"0"})",
      R"({"type":"deploy","tenant":"t","config":"1"})",
  };

  // Uninterrupted reference run under the measured signal.
  ServeOptions options_a = MeasuredDrillOptions();
  options_a.state_path = testing::TempDir() + "/bati_serve_signal_a.ckpt";
  ServeDaemon full(options_a);
  const std::string out_full = RunScript(&full, script);
  const std::string state_full = ShutdownState(&full, options_a.state_path);

  // SIGTERM after the first deploy: two calibration samples are in.
  ServeOptions options_b = MeasuredDrillOptions();
  options_b.state_path = testing::TempDir() + "/bati_serve_signal_b.ckpt";
  std::string out_prefix;
  {
    ServeDaemon interrupted(options_b);
    for (size_t i = 0; i < 2; ++i) {
      interrupted.ProcessLine(script[i], &out_prefix);
    }
    ASSERT_TRUE(interrupted.Shutdown().ok());
  }
  StatusOr<ServeCheckpoint> ckpt = LoadServeCheckpoint(options_b.state_path);
  ASSERT_TRUE(ckpt.ok());
  EXPECT_EQ(ckpt->signal, SignalKind::kMeasured);
  ASSERT_EQ(ckpt->tenants.size(), 1u);
  EXPECT_EQ(ckpt->tenants[0].calib_samples, 2);
  EXPECT_GT(ckpt->tenants[0].calib_sum, 0.0);

  // Resume with the daemon misconfigured back to what-if: the
  // checkpoint's signal kind is adopted, so the replayed suffix still
  // carries measured verdicts and converges to the reference bytes.
  ServeOptions options_c = MeasuredDrillOptions();
  options_c.signal = SignalKind::kWhatIf;  // deliberately wrong
  options_c.state_path = options_b.state_path;
  ServeDaemon resumed(options_c);
  ASSERT_TRUE(resumed.Resume().ok());
  const std::string out_suffix = RunScript(&resumed, script);
  EXPECT_EQ(out_prefix + out_suffix, out_full);
  EXPECT_EQ(ShutdownState(&resumed, options_c.state_path), state_full);
  EXPECT_EQ(resumed.metrics()
                .GetGauge("serve.tenant.t.calibration_samples")
                ->value(),
            4.0);
}

}  // namespace
}  // namespace bati
