// Tests for the session subsystem: the thread-safe BundleRegistry (the
// regression test for the data race the old `static` LoadBundle map had),
// the TuningSession lifecycle, the SessionManager's FIFO + per-workload
// fair scheduling, the JSONL spec parser behind bati_batch, and the
// bati_tune run flags that feed the same parser.
//
// The registry tests hammer LoadBundle from many threads on purpose; run
// them under the TSan build (BATI_SANITIZE=thread) to prove the race is
// gone, not just unlikely.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "session/spec_json.h"

namespace bati {
namespace {

// ---------------------------------------------------------------------------
// BundleRegistry

TEST(BundleRegistryTest, ConcurrentLoadBundleReturnsOneBundle) {
  // The old implementation kept a bare `static std::map` that two threads
  // could rehash concurrently; this is the regression test for that race.
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 25;
  std::atomic<const WorkloadBundle*> first{nullptr};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&first, &mismatches] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const WorkloadBundle& bundle = LoadBundle("toy");
        const WorkloadBundle* expected = nullptr;
        if (!first.compare_exchange_strong(expected, &bundle) &&
            expected != &bundle) {
          mismatches.fetch_add(1);
        }
        // Read through the bundle the way sessions do, so TSan watches the
        // shared state, not just the pointer.
        if (bundle.workload.num_queries() <= 0) mismatches.fetch_add(1);
        if (bundle.candidates.indexes.empty()) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(first.load(), &LoadBundle("toy"));
}

TEST(BundleRegistryTest, ConcurrentMixedNamesIncludingUnknown) {
  constexpr int kThreads = 6;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&errors] {
      for (int i = 0; i < 10; ++i) {
        if (BundleRegistry::Global().TryGet("toy") == nullptr) {
          errors.fetch_add(1);
        }
        if (BundleRegistry::Global().TryGet("no-such-workload") != nullptr) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(BundleRegistryTest, UnknownNameIsNullAndCached) {
  BundleRegistry registry;
  EXPECT_EQ(registry.TryGet("definitely-not-a-workload"), nullptr);
  // Probing again must hit the cached null entry, not rebuild.
  EXPECT_EQ(registry.TryGet("definitely-not-a-workload"), nullptr);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(BundleRegistryTest, StablePointerAcrossLookups) {
  const WorkloadBundle* a = BundleRegistry::Global().TryGet("toy");
  const WorkloadBundle* b = BundleRegistry::Global().TryGet("toy");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, &LoadBundle("toy"));
}

// ---------------------------------------------------------------------------
// TuningSession

RunSpec ToySpec(const std::string& algorithm, int64_t budget = 40) {
  RunSpec spec;
  spec.workload = "toy";
  spec.algorithm = algorithm;
  spec.budget = budget;
  spec.max_indexes = 5;
  return spec;
}

TEST(TuningSessionTest, SoloSessionMatchesRunOnce) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  RunSpec spec;
  spec.workload = "toy";
  spec.algorithm = "two-phase-greedy";
  spec.budget = 60;
  spec.max_indexes = 5;

  const RunOutcome via_runonce = RunOnce(bundle, spec);
  TuningSession session(bundle, spec);
  const RunOutcome& via_session = session.Run();

  EXPECT_DOUBLE_EQ(via_session.true_improvement,
                   via_runonce.true_improvement);
  EXPECT_DOUBLE_EQ(via_session.derived_improvement,
                   via_runonce.derived_improvement);
  EXPECT_EQ(via_session.calls_used, via_runonce.calls_used);
  EXPECT_EQ(via_session.config_size, via_runonce.config_size);
  EXPECT_EQ(via_session.trace, via_runonce.trace);
}

TEST(TuningSessionTest, CapturesArtifactsOnRequest) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  RunSpec spec;
  spec.workload = "toy";
  spec.algorithm = "vanilla-greedy";
  spec.budget = 40;
  spec.max_indexes = 5;

  SessionOptions options;
  options.capture_result_json = true;
  options.capture_layout_csv = true;
  TuningSession session(bundle, spec, options);
  session.Run();
  EXPECT_NE(session.result_json().find("\"workload\":\"toy\""),
            std::string::npos);
  EXPECT_NE(session.result_json().find("\"improvement\":"),
            std::string::npos);
  EXPECT_NE(session.layout_csv().find("round"), std::string::npos);

  // Off by default: the same run without switches keeps nothing.
  TuningSession bare(bundle, spec);
  bare.Run();
  EXPECT_TRUE(bare.result_json().empty());
  EXPECT_TRUE(bare.layout_csv().empty());
}

TEST(TuningSessionTest, ResumeStatusReportsARejectedCheckpoint) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  RunSpec spec = ToySpec("vanilla-greedy");
  const RunOutcome fresh = RunOnce(bundle, spec);

  spec.resume_path = testing::TempDir() + "session_garbage.ckpt";
  { std::ofstream(spec.resume_path) << "not a checkpoint\n"; }
  TuningSession session(bundle, spec);
  // The constructor already tried the checkpoint; a caller can refuse to
  // run before any tuning happens.
  EXPECT_FALSE(session.resume_status().ok());
  // Run() instead falls back to a fresh start, which converges on the
  // uninterrupted run.
  const RunOutcome& outcome = session.Run();
  EXPECT_EQ(outcome.config_positions, fresh.config_positions);
  EXPECT_EQ(outcome.calls_used, fresh.calls_used);
  std::remove(spec.resume_path.c_str());
}

TEST(TuningSessionTest, FinishedServiceAndTracerStayReadable) {
  RunSpec spec = ToySpec("mcts");
  spec.trace_buffer = 256;
  TuningSession session(LoadBundle("toy"), spec);
  EXPECT_TRUE(session.resume_status().ok());
  EXPECT_EQ(session.tuner().name().rfind("mcts", 0), 0u);
  const RunOutcome& outcome = session.Run();
  EXPECT_EQ(session.service().calls_made(), outcome.calls_used);
  EXPECT_EQ(session.result().best_config.ToIndices(),
            outcome.config_positions);
  ASSERT_NE(session.tracer(), nullptr);
  EXPECT_EQ(session.tracer()->size(), outcome.trace_events);
  // Tracing is off unless the spec asks for it.
  TuningSession bare(LoadBundle("toy"), ToySpec("mcts"));
  EXPECT_EQ(bare.tracer(), nullptr);
}

TEST(TuningSessionTest, ReportsAFailedCheckpointWriteOnce) {
  // A checkpoint path below a regular file can never be written, so every
  // round boundary of the run fails the same way.
  const std::string file = testing::TempDir() + "session_not_a_dir";
  { std::ofstream(file) << "x"; }
  RunSpec spec = ToySpec("mcts");
  spec.checkpoint_path = file + "/run.ckpt";
  testing::internal::CaptureStderr();
  TuningSession session(LoadBundle("toy"), spec);
  session.Run();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(session.service().checkpoint_status().ok());
  size_t reports = 0;
  for (size_t pos = err.find("checkpoint write failed");
       pos != std::string::npos;
       pos = err.find("checkpoint write failed", pos + 1)) {
    ++reports;
  }
  EXPECT_EQ(reports, 1u) << err;
  std::remove(file.c_str());
}

// ---------------------------------------------------------------------------
// SessionManager

TEST(SessionManagerTest, DrainReturnsResultsInSubmissionOrder) {
  SessionManagerOptions options;
  options.parallelism = 4;
  SessionManager manager(options);
  const std::vector<std::string> algorithms = {
      "vanilla-greedy", "two-phase-greedy", "autoadmin-greedy", "dta"};
  for (const std::string& algorithm : algorithms) {
    manager.Submit(ToySpec(algorithm));
  }
  std::vector<SessionResult> results = manager.Drain();
  ASSERT_EQ(results.size(), algorithms.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].id, i + 1);
    EXPECT_EQ(results[i].spec.algorithm, algorithms[i]);
    EXPECT_TRUE(results[i].status.ok());
    EXPECT_GT(results[i].outcome.calls_used, 0);
  }
}

TEST(SessionManagerTest, SingleWorkerRunsFifoWithinOneWorkload) {
  SessionManagerOptions options;
  options.parallelism = 1;
  options.start_paused = true;
  SessionManager manager(options);
  for (int i = 0; i < 4; ++i) manager.Submit(ToySpec("vanilla-greedy"));
  manager.Start();
  std::vector<SessionResult> results = manager.Drain();
  ASSERT_EQ(results.size(), 4u);
  // One worker, one workload: completion order == submission order.
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].sequence, i + 1);
  }
}

TEST(SessionManagerTest, RoundRobinAcrossWorkloadsIsFair) {
  // Queue a burst of toy specs ahead of one tpch spec on a paused
  // single-worker manager: the rotation must interleave the two workloads
  // rather than let the burst starve tpch to the end.
  SessionManagerOptions options;
  options.parallelism = 1;
  options.start_paused = true;
  SessionManager manager(options);
  for (int i = 0; i < 3; ++i) manager.Submit(ToySpec("vanilla-greedy"));
  RunSpec tpch = ToySpec("vanilla-greedy", 100);
  tpch.workload = "tpch";
  const uint64_t tpch_id = manager.Submit(tpch);
  manager.Start();
  std::vector<SessionResult> results = manager.Drain();
  ASSERT_EQ(results.size(), 4u);
  // Rotation is [toy, tpch] in first-submission order, so the single
  // worker runs toy#1 then tpch then the remaining toys: the tpch spec
  // finishes second, not last.
  EXPECT_EQ(results[tpch_id - 1].spec.workload, "tpch");
  EXPECT_EQ(results[tpch_id - 1].sequence, 2u);
}

TEST(SessionManagerTest, UnknownWorkloadYieldsErrorResult) {
  SessionManagerOptions options;
  options.parallelism = 2;
  SessionManager manager(options);
  RunSpec bad = ToySpec("vanilla-greedy");
  bad.workload = "no-such-workload";
  manager.Submit(bad);
  manager.Submit(ToySpec("vanilla-greedy"));
  std::vector<SessionResult> results = manager.Drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(results[0].status.message().find("no-such-workload"),
            std::string::npos);
  EXPECT_TRUE(results[1].status.ok());
}

TEST(SessionManagerTest, ManagerIsReusableAfterDrain) {
  SessionManagerOptions options;
  options.parallelism = 2;
  SessionManager manager(options);
  manager.Submit(ToySpec("vanilla-greedy"));
  EXPECT_EQ(manager.Drain().size(), 1u);
  manager.Submit(ToySpec("dta"));
  manager.Submit(ToySpec("two-phase-greedy"));
  std::vector<SessionResult> results = manager.Drain();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[2].spec.algorithm, "two-phase-greedy");
}

TEST(SessionManagerTest, CapturesArtifactsWhenConfigured) {
  SessionManagerOptions options;
  options.parallelism = 2;
  options.session.capture_result_json = true;
  options.session.capture_layout_csv = true;
  SessionManager manager(options);
  manager.Submit(ToySpec("vanilla-greedy"));
  std::vector<SessionResult> results = manager.Drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].result_json.find("\"algorithm\":"),
            std::string::npos);
  EXPECT_FALSE(results[0].layout_csv.empty());
}

// ---------------------------------------------------------------------------
// ParseRunSpecJson

TEST(SpecJsonTest, ParsesFullSpec) {
  RunSpec spec;
  const Status st = ParseRunSpecJson(
      "{\"workload\":\"tpch\",\"algorithm\":\"mcts\",\"budget\":2000,"
      "\"k\":5,\"storage_gb\":2.5,\"seed\":9,\"early_stop\":true,"
      "\"realloc_budget\":true,\"skip_threshold\":0.01,"
      "\"stop_threshold\":0.2,\"stop_window\":40,\"fault_rate\":0.05,"
      "\"fault_sticky\":0.01,\"fault_spike\":0.1,"
      "\"fault_spike_factor\":8,\"fault_seed\":3,\"retry_attempts\":6,"
      "\"retry_timeout\":4.5,\"collect_metrics\":true,"
      "\"trace_out\":\"/tmp/t.json\"}",
      &spec);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(spec.workload, "tpch");
  EXPECT_EQ(spec.algorithm, "mcts");
  EXPECT_EQ(spec.budget, 2000);
  EXPECT_EQ(spec.max_indexes, 5);
  EXPECT_DOUBLE_EQ(spec.max_storage_bytes, 2.5e9);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_TRUE(spec.governor.enabled);
  EXPECT_TRUE(spec.governor.early_stop);
  EXPECT_TRUE(spec.governor.skip_what_if);
  EXPECT_DOUBLE_EQ(spec.governor.realloc.skip_rel_threshold, 0.01);
  EXPECT_DOUBLE_EQ(spec.governor.stop.abs_threshold_pct, 0.2);
  EXPECT_EQ(spec.governor.stop.window_calls, 40);
  EXPECT_TRUE(spec.faults.enabled);
  EXPECT_DOUBLE_EQ(spec.faults.transient_rate, 0.05);
  EXPECT_DOUBLE_EQ(spec.faults.sticky_rate, 0.01);
  EXPECT_DOUBLE_EQ(spec.faults.spike_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec.faults.spike_factor, 8.0);
  EXPECT_EQ(spec.faults.seed, 3u);
  EXPECT_EQ(spec.retry.max_attempts, 6);
  EXPECT_DOUBLE_EQ(spec.retry.call_timeout_seconds, 4.5);
  EXPECT_TRUE(spec.collect_metrics);
  EXPECT_EQ(spec.trace_path, "/tmp/t.json");
}

TEST(SpecJsonTest, MinimalSpecLeavesDefaults) {
  RunSpec spec;
  ASSERT_TRUE(ParseRunSpecJson("{\"workload\":\"toy\"}", &spec).ok());
  EXPECT_EQ(spec.workload, "toy");
  EXPECT_EQ(spec.budget, RunSpec().budget);
  EXPECT_FALSE(spec.governor.enabled);
  EXPECT_FALSE(spec.faults.enabled);
  EXPECT_FALSE(spec.collect_metrics);
}

TEST(SpecJsonTest, RejectsBadInput) {
  RunSpec spec;
  // Strict validation: every one of these must fail loudly, never default.
  EXPECT_FALSE(ParseRunSpecJson("", &spec).ok());
  EXPECT_FALSE(ParseRunSpecJson("not json", &spec).ok());
  EXPECT_FALSE(ParseRunSpecJson("{}", &spec).ok());  // workload required
  EXPECT_FALSE(ParseRunSpecJson("{\"workload\":\"\"}", &spec).ok());
  EXPECT_FALSE(ParseRunSpecJson("{\"workload\":42}", &spec).ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"bogus\":1}", &spec).ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"budget\":-1}", &spec).ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"budget\":1.5}", &spec).ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"k\":0}", &spec).ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"fault_rate\":1.5}", &spec)
          .ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"seed\":{}}", &spec).ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\"} trailing", &spec).ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",}", &spec).ok());
  // Integers wider than the field are out of range, never narrowed.
  for (const char* line : {"{\"workload\":\"toy\",\"k\":4294967297}",
                           "{\"workload\":\"toy\",\"retry_attempts\":"
                           "4294967296}"}) {
    const Status st = ParseRunSpecJson(line, &spec);
    EXPECT_FALSE(st.ok()) << line;
    EXPECT_NE(st.message().find("out of range"), std::string::npos)
        << line << " -> " << st.message();
  }
}

TEST(SpecJsonTest, ValidatesAlgorithmAtParseTime) {
  // An unknown algorithm must be an InvalidArgument here, at the input
  // boundary — not a CHECK-crash later inside MakeTuner.
  RunSpec spec;
  const Status st = ParseRunSpecJson(
      "{\"workload\":\"toy\",\"algorithm\":\"qlearning\"}", &spec);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("qlearning"), std::string::npos);
  // An omitted algorithm gets the documented default instead of staying
  // empty (which MakeTuner would also reject).
  ASSERT_TRUE(ParseRunSpecJson("{\"workload\":\"toy\"}", &spec).ok());
  EXPECT_EQ(spec.algorithm, "mcts");
  EXPECT_TRUE(IsKnownAlgorithm("vanilla-greedy"));
  EXPECT_TRUE(IsKnownAlgorithm("mcts-uct-bce-fix0"));
  EXPECT_FALSE(IsKnownAlgorithm(""));
  EXPECT_FALSE(IsKnownAlgorithm("greedy"));
}

TEST(SpecJsonTest, RunSpecToJsonRoundTrips) {
  RunSpec spec;
  ASSERT_TRUE(ParseRunSpecJson(
                  "{\"workload\":\"tpch\",\"algorithm\":\"dba-bandits\","
                  "\"budget\":750,\"k\":4,\"seed\":13,\"early_stop\":true,"
                  "\"stop_threshold\":0.15,\"stop_window\":25,"
                  "\"fault_rate\":0.02,\"retry_attempts\":4}",
                  &spec)
                  .ok());
  const std::string json = RunSpecToJson(spec);
  RunSpec reparsed;
  ASSERT_TRUE(ParseRunSpecJson(json, &reparsed).ok()) << json;
  // The round trip is exact: same identity and a fixed point of the
  // serializer itself.
  EXPECT_EQ(RunIdentity(reparsed), RunIdentity(spec));
  EXPECT_EQ(RunSpecToJson(reparsed), json);
  // Defaults stay implicit: a minimal spec serializes minimally.
  RunSpec minimal;
  ASSERT_TRUE(ParseRunSpecJson("{\"workload\":\"toy\"}", &minimal).ok());
  EXPECT_EQ(RunSpecToJson(minimal),
            "{\"workload\":\"toy\",\"algorithm\":\"mcts\"}");
}

TEST(SpecJsonTest, EscapedStringsRoundTrip) {
  // A control byte is written as \u00XX and read back unchanged.
  RunSpec spec;
  spec.workload = "to\ty \"q\" \\";
  spec.algorithm = "mcts";
  const std::string json = RunSpecToJson(spec);
  EXPECT_NE(json.find("\\u0009"), std::string::npos) << json;
  RunSpec reparsed;
  ASSERT_TRUE(ParseRunSpecJson(json, &reparsed).ok()) << json;
  EXPECT_EQ(reparsed.workload, spec.workload);
  EXPECT_EQ(RunSpecToJson(reparsed), json);
}

TEST(SpecJsonTest, SignalKeyValidatesAndRoundTrips) {
  RunSpec spec;
  for (const char* name : {"whatif", "exec-deterministic", "measured"}) {
    ASSERT_TRUE(ParseRunSpecJson(
                    std::string("{\"workload\":\"toy\",\"signal\":\"") +
                        name + "\"}",
                    &spec)
                    .ok())
        << name;
    EXPECT_EQ(spec.deploy_signal, name);
    const std::string json = RunSpecToJson(spec);
    EXPECT_NE(json.find(std::string("\"signal\":\"") + name + "\""),
              std::string::npos)
        << json;
    RunSpec reparsed;
    ASSERT_TRUE(ParseRunSpecJson(json, &reparsed).ok()) << json;
    EXPECT_EQ(reparsed.deploy_signal, name);
  }
  // Unknown names and non-string values are strict errors; the absent key
  // means "daemon default" and stays implicit in the serialized form.
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"signal\":\"bogus\"}", &spec)
          .ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"signal\":7}", &spec).ok());
  RunSpec minimal;
  ASSERT_TRUE(ParseRunSpecJson("{\"workload\":\"toy\"}", &minimal).ok());
  EXPECT_TRUE(minimal.deploy_signal.empty());
  EXPECT_EQ(RunSpecToJson(minimal).find("signal"), std::string::npos);
}

// ---------------------------------------------------------------------------
// bati_tune's run flags: AddRunSpecFlags() -> RunSpecFromFields()

/// Parses a bati_tune command line the way the tool does: the run flags
/// become spec-line fields after a default workload.
Status SpecFromFlags(std::vector<std::string> args, RunSpec* spec) {
  std::vector<JsonField> fields(1);
  fields[0].key = "workload";
  fields[0].str = "toy";
  FlagParser parser;
  AddRunSpecFlags(&parser, &fields);
  args.insert(args.begin(), "bati_tune");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  if (!parser.Parse(static_cast<int>(argv.size()), argv.data())) {
    return Status::InvalidArgument("flag rejected");
  }
  return RunSpecFromFields(fields, spec);
}

TEST(RunSpecFlagsTest, FlagsBuildTheSpecTheirLineBuilds) {
  RunSpec from_flags;
  const Status st = SpecFromFlags(
      {"--algorithm", "dba-bandits", "--budget=200", "--k", "5", "--seed",
       "3", "--storage-gb", "2.5", "--early-stop", "--realloc-budget",
       "--skip-threshold", "0.02", "--stop-threshold", "0.3",
       "--stop-window", "40", "--fault-rate", "0.1", "--fault-sticky",
       "0.01", "--fault-spike", "0.05", "--fault-spike-factor", "8",
       "--fault-seed", "11", "--retry-attempts", "6", "--retry-timeout",
       "4.5", "--checkpoint", "c.ckpt", "--resume", "r.ckpt"},
      &from_flags);
  ASSERT_TRUE(st.ok()) << st.message();
  RunSpec from_line;
  ASSERT_TRUE(ParseRunSpecJson(
                  "{\"workload\":\"toy\",\"algorithm\":\"dba-bandits\","
                  "\"budget\":200,\"k\":5,\"seed\":3,\"storage_gb\":2.5,"
                  "\"early_stop\":true,\"realloc_budget\":true,"
                  "\"skip_threshold\":0.02,\"stop_threshold\":0.3,"
                  "\"stop_window\":40,\"fault_rate\":0.1,"
                  "\"fault_sticky\":0.01,\"fault_spike\":0.05,"
                  "\"fault_spike_factor\":8,\"fault_seed\":11,"
                  "\"retry_attempts\":6,\"retry_timeout\":4.5,"
                  "\"checkpoint\":\"c.ckpt\",\"resume\":\"r.ckpt\"}",
                  &from_line)
                  .ok());
  EXPECT_EQ(RunSpecToJson(from_flags), RunSpecToJson(from_line));
  EXPECT_EQ(RunIdentity(from_flags), RunIdentity(from_line));
  EXPECT_TRUE(from_flags.governor.enabled);
  EXPECT_TRUE(from_flags.faults.enabled);

  // No run flags: bati_tune's defaults are the spec line's.
  RunSpec bare;
  ASSERT_TRUE(SpecFromFlags({}, &bare).ok());
  EXPECT_EQ(RunSpecToJson(bare), "{\"workload\":\"toy\",\"algorithm\":"
                                 "\"mcts\"}");
}

TEST(RunSpecFlagsTest, RejectsWhatASpecLineRejects) {
  // bati_tune used to narrow the first three to K=0, K=-1 and a CHECK
  // failure, ignore the next two, and abort on the unknown algorithm.
  const std::vector<std::vector<std::string>> rejected = {
      {"--k", "4294967296"},
      {"--k", "4294967295"},
      {"--retry-attempts", "4294967296", "--fault-rate", "0.5"},
      {"--skip-threshold", "-5"},
      {"--stop-window", "-3"},
      {"--algorithm", "foo"},
      {"--budget", "abc"},
      {"--fault-rate", "nan"},
      {"--fault-rate", "1.5"},
      {"--early-stop=1"},
      {"--workload", ""},
  };
  for (const std::vector<std::string>& args : rejected) {
    RunSpec spec;
    EXPECT_FALSE(SpecFromFlags(args, &spec).ok())
        << args[0] << " " << args.back();
  }
}

}  // namespace
}  // namespace bati
