#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/durable.h"
#include "common/file_util.h"
#include "fleet/wire.h"
#include "harness/experiment.h"
#include "serve/serve_checkpoint.h"
#include "whatif/checkpoint.h"
#include "whatif/cost_service.h"

namespace bati {
namespace {

const char* kAllAlgorithms[] = {
    "vanilla-greedy", "two-phase-greedy", "autoadmin-greedy", "dba-bandits",
    "no-dba",         "dta",              "relaxation",       "mcts",
};

/// Number of AtomicWriteFile temporaries beside `path`.
int TempSiblings(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp";
  int count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

// ---- Serialization round-trips bit-exactly. ----------------------------

EngineCheckpoint SampleCheckpoint() {
  EngineCheckpoint ckpt;
  ckpt.identity = "workload=toy,algorithm=mcts,seed=7 with spaces";
  ckpt.num_queries = 4;
  ckpt.num_candidates = 9;
  ckpt.budget = 100;
  ckpt.round = 3;
  ckpt.calls_made = 2;
  ckpt.cache_hits = 5;
  ckpt.degraded_cells = 1;
  ckpt.batched_cells = 14;
  ckpt.fault_transient = 6;
  ckpt.fault_sticky = 2;
  ckpt.fault_timeouts = 1;
  ckpt.retry_attempts = 9;
  ckpt.governor_skipped = 4;
  ckpt.governor_banked = 3;
  ckpt.governor_reallocated = 1;
  ckpt.governor_stop_round = 2;
  ckpt.governor_stop_calls = 17;
  CheckpointEvent e1;
  e1.charged = true;
  e1.query_id = 1;
  e1.round = 0;
  e1.cost = 0.1 + 0.2;  // not exactly 0.3: hexfloat must round-trip it
  e1.sim_seconds = 1.5000000000000002;
  e1.positions = {0, 3, 8};
  CheckpointEvent e2;
  e2.charged = false;
  e2.query_id = 3;
  e2.round = 2;
  e2.cost = 0.0;
  e2.sim_seconds = 0.7071067811865476;
  e2.positions = {2};
  CheckpointEvent e3 = e1;
  e3.query_id = 0;
  e3.round = 2;
  ckpt.events = {e1, e2, e3};
  ckpt.sim_seconds = e1.sim_seconds + e2.sim_seconds + e3.sim_seconds;
  return ckpt;
}

TEST(CheckpointFormat, RoundTripsBitExactly) {
  const EngineCheckpoint ckpt = SampleCheckpoint();
  const std::string text = SerializeCheckpoint(ckpt);
  StatusOr<EngineCheckpoint> parsed = ParseCheckpoint(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->identity, ckpt.identity);
  EXPECT_EQ(parsed->num_queries, ckpt.num_queries);
  EXPECT_EQ(parsed->num_candidates, ckpt.num_candidates);
  EXPECT_EQ(parsed->budget, ckpt.budget);
  EXPECT_EQ(parsed->round, ckpt.round);
  EXPECT_EQ(parsed->calls_made, ckpt.calls_made);
  EXPECT_EQ(parsed->cache_hits, ckpt.cache_hits);
  EXPECT_EQ(parsed->degraded_cells, ckpt.degraded_cells);
  EXPECT_EQ(parsed->batched_cells, ckpt.batched_cells);
  EXPECT_EQ(parsed->sim_seconds, ckpt.sim_seconds);  // exact, not near
  EXPECT_EQ(parsed->fault_transient, ckpt.fault_transient);
  EXPECT_EQ(parsed->fault_sticky, ckpt.fault_sticky);
  EXPECT_EQ(parsed->fault_timeouts, ckpt.fault_timeouts);
  EXPECT_EQ(parsed->retry_attempts, ckpt.retry_attempts);
  EXPECT_EQ(parsed->governor_skipped, ckpt.governor_skipped);
  EXPECT_EQ(parsed->governor_stop_round, ckpt.governor_stop_round);
  EXPECT_EQ(parsed->governor_stop_calls, ckpt.governor_stop_calls);
  ASSERT_EQ(parsed->events.size(), ckpt.events.size());
  for (size_t i = 0; i < ckpt.events.size(); ++i) {
    EXPECT_TRUE(parsed->events[i] == ckpt.events[i]) << "event " << i;
  }
  // Serializing the parse gives the identical bytes.
  EXPECT_EQ(SerializeCheckpoint(*parsed), text);
}

TEST(CheckpointFormat, RejectsCorruption) {
  const EngineCheckpoint ckpt = SampleCheckpoint();
  const std::string good = SerializeCheckpoint(ckpt);

  EXPECT_FALSE(ParseCheckpoint("").ok());
  EXPECT_FALSE(ParseCheckpoint("not a checkpoint\n").ok());
  // Truncation anywhere is rejected.
  EXPECT_FALSE(ParseCheckpoint(good.substr(0, good.size() / 2)).ok());
  EXPECT_FALSE(ParseCheckpoint(good.substr(0, good.size() - 5)).ok());
  {
    // Tampered counter: charged events no longer match calls_made.
    EngineCheckpoint bad = ckpt;
    bad.calls_made = 7;
    EXPECT_FALSE(ParseCheckpoint(SerializeCheckpoint(bad)).ok());
  }
  {
    // Tampered clock: event times no longer sum to the recorded clock.
    EngineCheckpoint bad = ckpt;
    bad.sim_seconds += 1.0;
    EXPECT_FALSE(ParseCheckpoint(SerializeCheckpoint(bad)).ok());
  }
  {
    // Position beyond the candidate universe.
    EngineCheckpoint bad = ckpt;
    bad.events[0].positions = {0, static_cast<size_t>(bad.num_candidates)};
    EXPECT_FALSE(ParseCheckpoint(SerializeCheckpoint(bad)).ok());
  }
  {
    // Event round tags must be non-decreasing and before the checkpoint.
    EngineCheckpoint bad = ckpt;
    bad.events[0].round = 2;
    bad.events[1].round = 0;
    EXPECT_FALSE(ParseCheckpoint(SerializeCheckpoint(bad)).ok());
  }
}

TEST(CheckpointFormat, RejectsEveryTruncationAndBitFlip) {
  // The v2 header (magic + body checksum + body length) turns arbitrary
  // file damage into a clean rejection: every strict prefix and every
  // single-bit corruption must fail to parse — never crash, never yield a
  // silently different checkpoint.
  const std::string good = SerializeCheckpoint(SampleCheckpoint());
  ASSERT_TRUE(ParseCheckpoint(good).ok());
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(ParseCheckpoint(good.substr(0, len)).ok())
        << "prefix of length " << len << " accepted";
  }
  for (size_t i = 0; i < good.size(); ++i) {
    std::string flipped = good;
    flipped[i] ^= 0x01;
    EXPECT_FALSE(ParseCheckpoint(flipped).ok())
        << "bit flip at byte " << i << " accepted";
  }
}

// The serve checkpoint and the fleet state share the what-if journal's
// envelope, so the same sweep must reject every damaged copy of them.
template <typename Parse>
void ExpectEveryTruncationAndBitFlipRejected(const std::string& good,
                                             Parse parse) {
  ASSERT_TRUE(parse(good));
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(parse(good.substr(0, len)))
        << "prefix of length " << len << " accepted";
  }
  for (size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = good;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_FALSE(parse(flipped))
          << "flip of bit " << bit << " at byte " << i << " accepted";
    }
  }
}

TEST(CheckpointFormat, ServeCheckpointRejectsEveryTruncationAndBitFlip) {
  ServeCheckpoint ckpt;
  ckpt.events_processed = 12;
  ckpt.clock = 3.25;
  ckpt.next_tune_id = 3;
  ckpt.queries = 9;
  ckpt.tunes_submitted = 2;
  ckpt.shipped = 1;
  ServeTenantState tenant;
  tenant.name = "alpha";
  tenant.spec_json = R"({"workload":"toy","algorithm":"mcts"})";
  tenant.budget_used = 40;
  tenant.calib_samples = 2;
  tenant.calib_sum = 2.5;
  tenant.deployed = {1, 4};
  tenant.observer_state = "counts 0 0\nwindow 0\nreference 0\n";
  ckpt.tenants = {tenant};
  ServePendingTune tune;
  tune.tune_id = 2;
  tune.tenant = "alpha";
  tune.origin = "drift";
  tune.submit_clock = 3.0;
  tune.positions = {0, 4};
  tune.improvement = 12.5;
  tune.calls_used = 38;
  tune.tune_seconds = 1.5;
  ckpt.pending = {tune};
  ExpectEveryTruncationAndBitFlipRejected(
      SerializeServeCheckpoint(ckpt), [](const std::string& text) {
        return ParseServeCheckpoint(text).ok();
      });
}

TEST(CheckpointFormat, FleetStateRejectsEveryTruncationAndBitFlip) {
  std::vector<ResultFrame> done(2);
  done[0].task_id = 1;
  done[0].payload = R"({"workload":"toy","improvement":12.5})";
  done[1].task_id = 3;
  done[1].attempt = 2;
  done[1].ok = false;
  done[1].payload = R"({"workload":"nope","error":"unknown workload"})";
  ExpectEveryTruncationAndBitFlipRejected(
      EncodeFleetState(done), [](const std::string& text) {
        std::vector<ResultFrame> parsed;
        return ParseFleetState(text, &parsed).ok();
      });
}

TEST(CheckpointFormat, RejectsV1FilesWithClearError) {
  // A pre-checksum checkpoint is not silently trusted; the error names
  // the version so the operator knows a fresh run rewrites it.
  const StatusOr<EngineCheckpoint> parsed =
      ParseCheckpoint("bati-checkpoint v1\nidentity x\nend\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("v1"), std::string::npos)
      << parsed.status().ToString();
}

TEST(CheckpointFormat, AtomicWriteLeavesNoTemporary) {
  const std::string path =
      testing::TempDir() + "/bati_checkpoint_atomic_test.ckpt";
  const EngineCheckpoint ckpt = SampleCheckpoint();
  ASSERT_TRUE(SaveCheckpoint(ckpt, path).ok());
  // Overwrite with different content; the reader sees complete files only.
  EngineCheckpoint second = ckpt;
  second.round = 9;
  second.events.back().round = 8;
  ASSERT_TRUE(SaveCheckpoint(second, path).ok());
  EXPECT_EQ(TempSiblings(path), 0) << "temporary file left behind";
  StatusOr<EngineCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->round, 9);
  std::remove(path.c_str());
}

TEST(CheckpointFormat, ConcurrentAtomicWritersNeverTearAFile) {
  // Two processes write the same path over and over, as the twin attempts
  // of a speculatively re-dispatched fleet task do. Every write succeeds,
  // and every file either writer reads back is a whole, sealed one.
  const std::string path =
      testing::TempDir() + "/bati_atomic_concurrent_test.ckpt";
  std::remove(path.c_str());
  constexpr int kWrites = 60;
  std::vector<pid_t> writers;
  for (int id = 0; id < 2; ++id) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      for (int i = 0; i < kWrites; ++i) {
        // Bodies of different lengths, large enough to take several
        // write calls, so a torn file fails the length check.
        const std::string body(
            static_cast<size_t>(65536 + 4096 * ((i + id) % 7)),
            static_cast<char>('a' + id));
        if (!AtomicWriteFile(path, SealDurable("bati-race v1", body)).ok()) {
          _exit(1);
        }
        const StatusOr<std::string> text = ReadFileToString(path);
        if (!text.ok() || !OpenDurable(*text, "bati-race v1").ok()) _exit(2);
      }
      _exit(0);
    }
    writers.push_back(pid);
  }
  for (const pid_t pid : writers) {
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    EXPECT_EQ(WEXITSTATUS(wstatus), 0)
        << "1: a write failed; 2: a torn or unsealed file was read";
  }
  const StatusOr<std::string> final_text = ReadFileToString(path);
  ASSERT_TRUE(final_text.ok());
  EXPECT_TRUE(OpenDurable(*final_text, "bati-race v1").ok());
  EXPECT_EQ(TempSiblings(path), 0);
  std::remove(path.c_str());
}

TEST(CheckpointFormat, RemoveAtomicWriteTempsSparesOtherFiles) {
  const std::string path = testing::TempDir() + "/bati_atomic_cleanup.ckpt";
  ASSERT_TRUE(AtomicWriteFile(path, "kept").ok());
  // What a writer killed between create and rename leaves behind.
  ASSERT_TRUE(AtomicWriteFile(path + ".tmp.999.0", "orphan").ok());
  ASSERT_TRUE(AtomicWriteFile(path + ".other", "kept").ok());
  EXPECT_EQ(TempSiblings(path), 1);
  RemoveAtomicWriteTemps(path);
  EXPECT_EQ(TempSiblings(path), 0);
  EXPECT_TRUE(ReadFileToString(path).ok());
  EXPECT_TRUE(ReadFileToString(path + ".other").ok());
  std::remove(path.c_str());
  std::remove((path + ".other").c_str());
}

// ---- Resume preconditions. ---------------------------------------------

TEST(Resume, RejectsMismatchedRuns) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  CostEngineOptions options;
  options.capture_checkpoints = true;
  options.run_identity = "identity-A";
  CostService original(bundle.optimizer.get(), &bundle.workload,
                       &bundle.candidates.indexes, 50, options);
  original.BeginRound();
  Config config = original.EmptyConfig();
  config.set(0);
  ASSERT_TRUE(original.WhatIfCost(0, config).has_value());
  original.BeginRound();
  ASSERT_EQ(original.captured_checkpoints().size(), 2u);
  StatusOr<EngineCheckpoint> ckpt =
      ParseCheckpoint(original.captured_checkpoints().back());
  ASSERT_TRUE(ckpt.ok());

  {
    // Wrong identity.
    CostEngineOptions other = options;
    other.run_identity = "identity-B";
    CostService fresh(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 50, other);
    EXPECT_FALSE(fresh.ResumeFromCheckpoint(*ckpt).ok());
  }
  {
    // Wrong budget.
    CostService fresh(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 51, options);
    EXPECT_FALSE(fresh.ResumeFromCheckpoint(*ckpt).ok());
  }
  {
    // Not fresh: the service already spent budget.
    CostService used(bundle.optimizer.get(), &bundle.workload,
                     &bundle.candidates.indexes, 50, options);
    ASSERT_TRUE(used.WhatIfCost(0, config).has_value());
    EXPECT_FALSE(used.ResumeFromCheckpoint(*ckpt).ok());
  }
  {
    // A fresh, matching service accepts it.
    CostService fresh(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 50, options);
    EXPECT_TRUE(fresh.ResumeFromCheckpoint(*ckpt).ok());
    EXPECT_TRUE(fresh.replaying());
  }
}

// ---- The kill-and-resume property. -------------------------------------
//
// Run each tuner once with per-round checkpoint capture; then, for every
// captured round boundary (i.e. every possible crash point), rebuild a
// fresh engine, resume from that checkpoint, and re-run the tuner. The
// resumed run must converge on a bit-identical outcome: same final
// configuration, same layout trace (cell by cell, round tags included),
// same counters, same simulated clock.

struct DirectRun {
  Config best{0};
  double derived_improvement = 0.0;
  std::vector<LayoutEntry> layout;
  int64_t calls = 0;
  int64_t cache_hits = 0;
  int64_t degraded = 0;
  int64_t transient = 0;
  int64_t retries = 0;
  double sim_seconds = 0.0;
  std::vector<std::string> checkpoints;
};

DirectRun RunDirect(const WorkloadBundle& bundle,
                    const std::string& algorithm,
                    const CostEngineOptions& base_options, int64_t budget,
                    const std::string* resume_from) {
  TuningContext ctx;
  ctx.workload = &bundle.workload;
  ctx.candidates = &bundle.candidates;
  ctx.constraints.max_indexes = 3;

  CostEngineOptions options = base_options;
  options.capture_checkpoints = true;
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, budget, options);
  if (resume_from != nullptr) {
    StatusOr<EngineCheckpoint> ckpt = ParseCheckpoint(*resume_from);
    EXPECT_TRUE(ckpt.ok()) << ckpt.status().ToString();
    const Status st = service.ResumeFromCheckpoint(*ckpt);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  std::unique_ptr<Tuner> tuner = MakeTuner(algorithm, ctx, /*seed=*/7);
  TuningResult result = tuner->Tune(service);

  DirectRun run;
  run.best = result.best_config;
  run.derived_improvement = result.derived_improvement;
  run.layout = service.layout();
  run.calls = service.calls_made();
  run.cache_hits = service.cache_hits();
  run.degraded = service.degraded_cells();
  const CostEngineStats stats = service.EngineStats();
  run.transient = stats.fault_transient_errors;
  run.retries = stats.retry_attempts;
  run.sim_seconds = service.SimulatedWhatIfSeconds();
  run.checkpoints = service.captured_checkpoints();
  return run;
}

void ExpectSameRun(const DirectRun& a, const DirectRun& b) {
  EXPECT_TRUE(a.best == b.best)
      << a.best.ToString() << " vs " << b.best.ToString();
  EXPECT_EQ(a.derived_improvement, b.derived_improvement);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.transient, b.transient);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);  // exact, not near
  ASSERT_EQ(a.layout.size(), b.layout.size());
  for (size_t i = 0; i < a.layout.size(); ++i) {
    EXPECT_EQ(a.layout[i].query_id, b.layout[i].query_id) << "call " << i;
    EXPECT_TRUE(a.layout[i].config == b.layout[i].config) << "call " << i;
    EXPECT_EQ(a.layout[i].round, b.layout[i].round) << "call " << i;
  }
}

void KillAndResumeEveryRound(const std::string& algorithm,
                             const CostEngineOptions& options,
                             int64_t budget) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  const DirectRun full = RunDirect(bundle, algorithm, options, budget,
                                   /*resume_from=*/nullptr);
  ASSERT_FALSE(full.checkpoints.empty())
      << "tuner declared no rounds; crash points cannot exist";
  for (size_t i = 0; i < full.checkpoints.size(); ++i) {
    SCOPED_TRACE("crash point: round checkpoint " + std::to_string(i + 1) +
                 "/" + std::to_string(full.checkpoints.size()));
    const DirectRun resumed = RunDirect(bundle, algorithm, options, budget,
                                        &full.checkpoints[i]);
    ExpectSameRun(full, resumed);
  }
}

TEST(Resume, KillAndResumeEveryRoundAllAlgorithmsFaulted) {
  CostEngineOptions options;
  options.run_identity = "checkpoint-test-faulted";
  options.faults.enabled = true;
  options.faults.seed = 13;
  options.faults.transient_rate = 0.15;
  options.faults.sticky_rate = 0.05;
  options.faults.spike_rate = 0.05;
  for (const char* algorithm : kAllAlgorithms) {
    SCOPED_TRACE(algorithm);
    KillAndResumeEveryRound(algorithm, options, /*budget=*/40);
  }
}

TEST(Resume, KillAndResumeEveryRoundFaultFree) {
  // Checkpointing also covers fault-free engines (the journal records the
  // legacy charge-then-evaluate path).
  CostEngineOptions options;
  options.run_identity = "checkpoint-test-plain";
  for (const char* algorithm : {"vanilla-greedy", "mcts", "dba-bandits"}) {
    SCOPED_TRACE(algorithm);
    KillAndResumeEveryRound(algorithm, options, /*budget=*/40);
  }
}

TEST(Resume, KillAndResumeEveryRoundGoverned) {
  // Governed runs checkpoint the governor's counters too; the replayed
  // governor must converge on the identical state.
  CostEngineOptions options;
  options.run_identity = "checkpoint-test-governed";
  options.governor = BudgetGovernorOptions::Enabled();
  for (const char* algorithm : {"vanilla-greedy", "two-phase-greedy", "mcts"}) {
    SCOPED_TRACE(algorithm);
    KillAndResumeEveryRound(algorithm, options, /*budget=*/40);
  }
}

TEST(Resume, KillAndResumeGovernedAndFaulted) {
  CostEngineOptions options;
  options.run_identity = "checkpoint-test-governed-faulted";
  options.governor = BudgetGovernorOptions::Enabled();
  options.faults.enabled = true;
  options.faults.seed = 29;
  options.faults.transient_rate = 0.2;
  options.faults.sticky_rate = 0.05;
  for (const char* algorithm : {"vanilla-greedy", "mcts"}) {
    SCOPED_TRACE(algorithm);
    KillAndResumeEveryRound(algorithm, options, /*budget=*/40);
  }
}

// ---- Checkpoint files through the harness. -----------------------------

TEST(Resume, HarnessCheckpointFileRoundTrip) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  const std::string path = testing::TempDir() + "/bati_harness_resume.ckpt";
  RunSpec spec;
  spec.workload = "toy";
  spec.algorithm = "two-phase-greedy";
  spec.budget = 40;
  spec.max_indexes = 3;
  spec.seed = 7;
  spec.faults.enabled = true;
  spec.faults.seed = 31;
  spec.faults.transient_rate = 0.15;
  spec.checkpoint_path = path;
  const RunOutcome full = RunOnce(bundle, spec);

  // The file now holds the *last* round's checkpoint; resuming from it
  // must reproduce the full run's outcome.
  RunSpec resume = spec;
  resume.checkpoint_path.clear();
  resume.resume_path = path;
  const RunOutcome resumed = RunOnce(bundle, resume);
  EXPECT_EQ(full.true_improvement, resumed.true_improvement);
  EXPECT_EQ(full.derived_improvement, resumed.derived_improvement);
  EXPECT_EQ(full.calls_used, resumed.calls_used);
  EXPECT_EQ(full.config_size, resumed.config_size);
  EXPECT_EQ(full.whatif_seconds, resumed.whatif_seconds);
  EXPECT_EQ(full.engine.degraded_cells, resumed.engine.degraded_cells);
  std::remove(path.c_str());
}

TEST(Resume, CorruptResumeFileFallsBackToFreshRun) {
  // A truncated checkpoint must not crash the run or change its outcome:
  // the engine rejects the file (clean Status, loud stderr) and the
  // session starts fresh, converging on the identical result.
  const WorkloadBundle& bundle = LoadBundle("toy");
  const std::string path =
      testing::TempDir() + "/bati_truncated_resume.ckpt";
  RunSpec spec;
  spec.workload = "toy";
  spec.algorithm = "two-phase-greedy";
  spec.budget = 40;
  spec.max_indexes = 3;
  spec.seed = 7;
  spec.checkpoint_path = path;
  const RunOutcome full = RunOnce(bundle, spec);

  std::string good;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char chunk[4096];
    size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      good.append(chunk, n);
    }
    std::fclose(f);
  }
  ASSERT_FALSE(good.empty());

  RunSpec resume = spec;
  resume.checkpoint_path.clear();
  resume.resume_path = path;
  for (const size_t len : {size_t{0}, good.size() / 4, good.size() / 2,
                           3 * good.size() / 4, good.size() - 1}) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + "/" +
                 std::to_string(good.size()) + " bytes");
    ASSERT_TRUE(AtomicWriteFile(path, good.substr(0, len)).ok());
    const RunOutcome fallback = RunOnce(bundle, resume);
    EXPECT_EQ(full.true_improvement, fallback.true_improvement);
    EXPECT_EQ(full.derived_improvement, fallback.derived_improvement);
    EXPECT_EQ(full.calls_used, fallback.calls_used);
    EXPECT_EQ(full.config_size, fallback.config_size);
    EXPECT_EQ(full.whatif_seconds, fallback.whatif_seconds);
    // Nothing was recovered: the run really did start over.
    EXPECT_EQ(fallback.engine.replayed_calls, 0);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bati
