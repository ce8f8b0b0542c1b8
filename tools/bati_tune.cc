// bati_tune: command-line front end for budget-aware index tuning.
//
//   bati_tune --workload tpcds --algorithm mcts --budget 2000 --k 10
//   bati_tune --workload tpch --minutes 5 --algorithm mcts --verbose
//   bati_tune --workload real-m --algorithm autoadmin-greedy --budget 1000
//             --storage-gb 78 --seed 3  (one line)
//
// Prints the recommendation as CREATE INDEX statements plus the measured
// improvement, what-if call usage, and (optionally) the layout trace.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/file_util.h"
#include "common/flags.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "mcts/mcts_tuner.h"
#include "tuner/time_budget.h"
#include "whatif/cost_service.h"
#include "whatif/trace_io.h"
#include "workload/loader.h"

namespace {

struct Args {
  std::string workload = "tpch";
  std::string schema_file;  // DDL; used with --sql-file instead of --workload
  std::string sql_file;
  std::string algorithm = "mcts";
  int64_t budget = 1000;
  double minutes = 0.0;  // when > 0, derives the budget from time
  int64_t k = 10;
  double storage_gb = 0.0;
  uint64_t seed = 1;
  bool verbose = false;
  bool show_layout = false;
  std::string layout_csv;  // write the layout trace to this CSV file
  bool json = false;       // print a machine-readable result line
  // Budget governor (src/budget/): off unless one of these is given.
  bool early_stop = false;      // Esc-style early stopping
  bool realloc_budget = false;  // Wii-style what-if skipping
  double skip_threshold = -1.0;  // relative skip threshold (default 0.01)
  double stop_threshold = -1.0;  // absolute stop threshold, pct pts (0.1)
  int64_t stop_window = 0;       // trailing window in calls (0 = auto)
  // Fault injection (src/faults/): off unless a rate is given.
  double fault_rate = 0.0;      // transient error rate per attempt
  double fault_sticky = 0.0;    // sticky per-cell failure rate
  double fault_spike = 0.0;     // latency-spike rate per attempt
  double fault_spike_factor = 20.0;
  uint64_t fault_seed = 1;
  int64_t retry_attempts = 4;
  double retry_timeout = 8.0;   // simulated seconds; 0 disables
  // Checkpoint/resume and the named crash points.
  std::string checkpoint;       // write a checkpoint at each round boundary
  std::string resume;           // resume from this checkpoint file
  int64_t crash_at_round = 0;   // simulate a crash at BeginRound(N)
  // Observability (src/obs/): off unless one of these is given.
  bool metrics = false;         // collect and print engine metrics
  std::string metrics_file;     // --metrics=FILE: write the snapshot JSON
  std::string trace_out;        // write a Chrome trace_event JSON here
  int64_t trace_buffer = 0;     // trace ring capacity (0 = default)
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --workload NAME     toy|tpch|tpcds|job|real-d|real-d-bench|real-m "
      "(default tpch)\n"
      "  --schema-file PATH  CREATE TABLE script (see sql/ddl.h annotations)\n"
      "  --sql-file PATH     ';'-separated SELECT workload (with "
      "--schema-file)\n"
      "  --algorithm NAME    vanilla-greedy|two-phase-greedy|"
      "autoadmin-greedy|\n"
      "                      dba-bandits|no-dba|dta|mcts[...] (default mcts)\n"
      "  --budget N          what-if call budget (default 1000)\n"
      "  --minutes M         derive the budget from a time budget instead\n"
      "  --k N               max indexes to recommend (default 10)\n"
      "  --storage-gb G      storage constraint in GB (default: none)\n"
      "  --seed S            RNG seed for randomized tuners (default 1)\n"
      "  --layout            dump the budget-allocation layout trace\n"
      "  --layout-csv PATH   write the layout trace as CSV\n"
      "  --json              print a machine-readable result line\n"
      "  --verbose           per-query improvement details\n"
      "  --early-stop        governor: stop early when the projected\n"
      "                      remaining improvement is negligible\n"
      "  --realloc-budget    governor: skip what-if calls whose improvement\n"
      "                      is provably bounded, banking the budget\n"
      "  --skip-threshold X  relative skip threshold (default 0.01)\n"
      "  --stop-threshold X  absolute stop threshold in improvement\n"
      "                      percentage points (default 0.1)\n"
      "  --stop-window N     early-stop trailing window in calls (default:\n"
      "                      max(16, budget/20))\n"
      "  --fault-rate X      injected transient what-if failure rate [0,1]\n"
      "  --fault-sticky X    injected sticky per-cell failure rate [0,1]\n"
      "  --fault-spike X     injected latency-spike rate [0,1]\n"
      "  --fault-spike-factor F  latency multiplier during a spike (>= 1)\n"
      "  --fault-seed S      seed of the deterministic fault schedule\n"
      "  --retry-attempts N  attempts per what-if call under faults "
      "(default 4)\n"
      "  --retry-timeout T   per-attempt timeout in simulated seconds\n"
      "                      (default 8, 0 disables)\n"
      "  --checkpoint PATH   write a crash-consistent checkpoint at every\n"
      "                      round boundary\n"
      "  --resume PATH       resume a killed run from its checkpoint (same\n"
      "                      flags otherwise; continues bit-identically)\n"
      "  --crash-at-round N  simulate a crash at round N after writing the\n"
      "                      checkpoint (exit code 42; for testing)\n"
      "  --metrics[=FILE]    collect engine metrics; print the report, or\n"
      "                      write the snapshot JSON to FILE\n"
      "  --trace-out FILE    record a structured trace and write it as\n"
      "                      Chrome trace_event JSON (Perfetto-loadable)\n"
      "  --trace-buffer N    trace ring-buffer capacity in events\n"
      "                      (default %zu; oldest events drop beyond it)\n",
      argv0, bati::Tracer::kDefaultCapacity);
}

/// The strict flag table, shared verbatim with bati_export/bati_batch via
/// common/flags.h: unknown or malformed flags make main() print usage and
/// exit 2.
bool ParseArgs(int argc, char** argv, Args* args) {
  bati::FlagParser parser;
  parser.AddString("workload", &args->workload);
  parser.AddString("schema-file", &args->schema_file);
  parser.AddString("sql-file", &args->sql_file);
  parser.AddString("algorithm", &args->algorithm);
  parser.AddString("layout-csv", &args->layout_csv);
  parser.AddString("checkpoint", &args->checkpoint);
  parser.AddString("resume", &args->resume);
  parser.AddInt64("budget", &args->budget, /*min=*/0);
  parser.AddDouble("minutes", &args->minutes, /*min=*/0.0);
  parser.AddInt64("k", &args->k, /*min=*/1);
  parser.AddDouble("storage-gb", &args->storage_gb, /*min=*/0.0);
  parser.AddUint64("seed", &args->seed);
  parser.AddDouble("skip-threshold", &args->skip_threshold);
  parser.AddDouble("stop-threshold", &args->stop_threshold);
  parser.AddInt64("stop-window", &args->stop_window);
  parser.AddRate("fault-rate", &args->fault_rate);
  parser.AddRate("fault-sticky", &args->fault_sticky);
  parser.AddRate("fault-spike", &args->fault_spike);
  parser.AddDouble("fault-spike-factor", &args->fault_spike_factor,
                   /*min=*/1.0);
  parser.AddUint64("fault-seed", &args->fault_seed);
  parser.AddInt64("retry-attempts", &args->retry_attempts, /*min=*/1);
  parser.AddDouble("retry-timeout", &args->retry_timeout, /*min=*/0.0);
  parser.AddInt64("crash-at-round", &args->crash_at_round, /*min=*/0);
  parser.AddOptionalValue("metrics", &args->metrics, &args->metrics_file);
  parser.AddString("trace-out", &args->trace_out);
  parser.AddInt64("trace-buffer", &args->trace_buffer, /*min=*/1);
  parser.AddBool("layout", &args->show_layout);
  parser.AddBool("json", &args->json);
  parser.AddBool("early-stop", &args->early_stop);
  parser.AddBool("realloc-budget", &args->realloc_budget);
  parser.AddBool("verbose", &args->verbose);
  return parser.Parse(argc, argv);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bati;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }

  WorkloadBundle file_bundle;
  const WorkloadBundle* bundle_ptr = nullptr;
  if (!args.schema_file.empty() || !args.sql_file.empty()) {
    if (args.schema_file.empty() || args.sql_file.empty()) {
      std::fprintf(stderr,
                   "--schema-file and --sql-file must be used together\n");
      return 1;
    }
    auto ddl = ReadFileToString(args.schema_file);
    if (!ddl.ok()) {
      std::fprintf(stderr, "%s\n", ddl.status().ToString().c_str());
      return 1;
    }
    auto db = LoadSchemaFromDdl("user", *ddl);
    if (!db.ok()) {
      std::fprintf(stderr, "schema: %s\n", db.status().ToString().c_str());
      return 1;
    }
    auto sql = ReadFileToString(args.sql_file);
    if (!sql.ok()) {
      std::fprintf(stderr, "%s\n", sql.status().ToString().c_str());
      return 1;
    }
    auto workload = LoadWorkloadFromSql("user", *db, *sql);
    if (!workload.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   workload.status().ToString().c_str());
      return 1;
    }
    file_bundle.workload = std::move(workload.value());
    file_bundle.optimizer =
        std::make_shared<WhatIfOptimizer>(file_bundle.workload.database);
    file_bundle.candidates = GenerateCandidates(file_bundle.workload);
    args.workload = "user";
    bundle_ptr = &file_bundle;
  } else {
    // TryGet (not LoadBundle) so a misspelled name is a clean error, not a
    // CHECK failure.
    bundle_ptr = BundleRegistry::Global().TryGet(args.workload);
    if (bundle_ptr == nullptr) {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 1;
    }
  }
  const WorkloadBundle& bundle = *bundle_ptr;

  int64_t budget = args.budget;
  if (args.minutes > 0.0) {
    budget = CallBudgetForTime(*bundle.optimizer, bundle.workload,
                               args.minutes * 60.0);
    std::printf("time budget %.1f min -> %lld what-if calls\n", args.minutes,
                static_cast<long long>(budget));
  }

  TuningContext ctx;
  ctx.workload = &bundle.workload;
  ctx.candidates = &bundle.candidates;
  ctx.constraints.max_indexes = static_cast<int>(args.k);
  ctx.constraints.max_storage_bytes = args.storage_gb * 1e9;

  BudgetGovernorOptions governor;
  if (args.early_stop || args.realloc_budget) {
    governor.enabled = true;
    governor.early_stop = args.early_stop;
    governor.skip_what_if = args.realloc_budget;
    if (args.skip_threshold >= 0.0) {
      governor.realloc.skip_rel_threshold = args.skip_threshold;
    }
    if (args.stop_threshold >= 0.0) {
      governor.stop.abs_threshold_pct = args.stop_threshold;
    }
    if (args.stop_window > 0) governor.stop.window_calls = args.stop_window;
  }

  CostEngineOptions engine_options;
  engine_options.governor = governor;
  engine_options.faults.enabled = args.fault_rate > 0.0 ||
                                  args.fault_sticky > 0.0 ||
                                  args.fault_spike > 0.0;
  engine_options.faults.seed = args.fault_seed;
  engine_options.faults.transient_rate = args.fault_rate;
  engine_options.faults.sticky_rate = args.fault_sticky;
  engine_options.faults.spike_rate = args.fault_spike;
  engine_options.faults.spike_factor = args.fault_spike_factor;
  engine_options.faults.crash_at_round = static_cast<int>(args.crash_at_round);
  engine_options.retry.max_attempts = static_cast<int>(args.retry_attempts);
  engine_options.retry.call_timeout_seconds = args.retry_timeout;
  engine_options.checkpoint_path = args.checkpoint;
  if (args.crash_at_round > 0 && args.checkpoint.empty()) {
    std::fprintf(stderr, "--crash-at-round requires --checkpoint\n");
    return 2;
  }
  {
    // Identity must match the harness's so CLI runs and harness runs can
    // share checkpoints; a resume with different flags is rejected.
    RunSpec ident_spec;
    ident_spec.workload = args.workload;
    ident_spec.algorithm = args.algorithm;
    ident_spec.budget = budget;
    ident_spec.max_indexes = static_cast<int>(args.k);
    ident_spec.max_storage_bytes = args.storage_gb * 1e9;
    ident_spec.seed = args.seed;
    ident_spec.governor = governor;
    ident_spec.faults = engine_options.faults;
    ident_spec.retry = engine_options.retry;
    engine_options.run_identity = RunIdentity(ident_spec);
  }

  std::unique_ptr<MetricsRegistry> registry;
  if (args.metrics) {
    registry = std::make_unique<MetricsRegistry>();
    engine_options.metrics = registry.get();
  }
  std::unique_ptr<Tracer> tracer;
  if (!args.trace_out.empty() || args.trace_buffer > 0) {
    tracer = std::make_unique<Tracer>(
        args.trace_buffer > 0 ? static_cast<size_t>(args.trace_buffer)
                              : Tracer::kDefaultCapacity);
    engine_options.tracer = tracer.get();
  }

  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, budget, engine_options);
  if (!args.resume.empty()) {
    bati::Status st = service.ResumeFromFile(args.resume);
    if (!st.ok()) {
      std::fprintf(stderr, "resume failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("resuming from %s\n", args.resume.c_str());
  }
  auto tuner = MakeTuner(args.algorithm, ctx, args.seed);
  std::printf("tuning %s (%d queries, %d candidates) with %s, budget=%lld, "
              "K=%d%s\n\n",
              args.workload.c_str(), bundle.workload.num_queries(),
              bundle.candidates.size(), tuner->name().c_str(),
              static_cast<long long>(budget), static_cast<int>(args.k),
              args.storage_gb > 0 ? " (+storage constraint)" : "");
  TuningResult result = tuner->Tune(service);
  service.FinishObservability();

  const Database& db = *bundle.workload.database;
  std::printf("recommendation (%zu indexes):\n", result.best_config.count());
  double storage = 0.0;
  for (const Index& ix : service.Materialize(result.best_config)) {
    storage += ix.SizeBytes(db);
    std::printf("  CREATE INDEX %s;  -- %.1f MB\n", ix.Name(db).c_str(),
                ix.SizeBytes(db) / 1e6);
  }
  std::printf("\nwhat-if calls used:        %lld / %lld (%lld cache hits)\n",
              static_cast<long long>(service.calls_made()),
              static_cast<long long>(budget),
              static_cast<long long>(service.cache_hits()));
  std::printf("estimated improvement:     %.2f%% (derived)\n",
              result.derived_improvement);
  std::printf("actual improvement:        %.2f%%\n",
              service.TrueImprovement(result.best_config));
  std::printf("total index storage:       %.2f GB\n", storage / 1e9);
  std::printf("simulated what-if time:    %.1f min\n",
              service.SimulatedWhatIfSeconds() / 60.0);
  std::printf("cost engine:               %s\n",
              service.EngineStats().ToString().c_str());
  if (service.FaultsEnabled()) {
    const CostEngineStats es = service.EngineStats();
    std::printf("fault tolerance:           degraded=%lld cells, "
                "transient=%lld, sticky=%lld, timeout=%lld, retries=%lld\n",
                static_cast<long long>(es.degraded_cells),
                static_cast<long long>(es.fault_transient_errors),
                static_cast<long long>(es.fault_sticky_failures),
                static_cast<long long>(es.fault_timeouts),
                static_cast<long long>(es.retry_attempts));
  }
  if (!args.checkpoint.empty() && !service.checkpoint_status().ok()) {
    std::fprintf(stderr, "warning: checkpoint writes failed: %s\n",
                 service.checkpoint_status().ToString().c_str());
  }
  if (const BudgetGovernor* gov = service.governor()) {
    GovernorStats gs = gov->stats();
    std::printf("budget governor:           skipped=%lld calls (banked=%lld, "
                "reallocated=%lld)\n",
                static_cast<long long>(gs.skipped_calls),
                static_cast<long long>(gs.banked_calls),
                static_cast<long long>(gs.reallocated_calls));
    if (gs.stop_round >= 0) {
      std::printf("                           stopped early at round %d "
                  "(call %lld of %lld)\n",
                  gs.stop_round, static_cast<long long>(gs.stop_calls),
                  static_cast<long long>(budget));
    }
    if (gs.remaining_improvement_ub_pct >= 0.0) {
      std::printf("                           remaining improvement bound: "
                  "%.4f%% pts\n",
                  gs.remaining_improvement_ub_pct);
    }
  }

  if (args.verbose) {
    std::printf("\nper-query improvement:\n");
    std::vector<Index> chosen = service.Materialize(result.best_config);
    for (const Query& q : bundle.workload.queries) {
      double before = bundle.optimizer->Cost(q, {});
      double after = bundle.optimizer->Cost(q, chosen);
      std::printf("  %-16s %10.1f -> %10.1f  (%.1f%%)\n", q.name.c_str(),
                  before, after, (1.0 - after / before) * 100.0);
    }
  }
  if (!args.layout_csv.empty()) {
    bati::Status st =
        WriteLayoutCsv(service, bundle.workload, args.layout_csv);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("layout trace written to %s\n", args.layout_csv.c_str());
  }
  MetricsSnapshot snapshot;
  if (registry != nullptr) {
    snapshot = registry->Snapshot();
    if (!args.metrics_file.empty()) {
      bati::Status st = AtomicWriteFile(args.metrics_file,
                                        snapshot.ToJson() + "\n");
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("metrics written to %s\n", args.metrics_file.c_str());
    } else {
      std::printf("\nmetrics:\n%s", snapshot.ToText().c_str());
    }
  }
  if (tracer != nullptr) {
    if (!args.trace_out.empty()) {
      bati::Status st = tracer->WriteChromeJson(args.trace_out);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("trace written to %s (%zu events, %llu dropped)\n",
                  args.trace_out.c_str(), tracer->size(),
                  static_cast<unsigned long long>(tracer->dropped()));
      if (args.verbose) std::printf("%s", tracer->ToTextReport().c_str());
    } else {
      // --trace-buffer without --trace-out: report inline.
      std::printf("\n%s", tracer->ToTextReport().c_str());
    }
  }
  if (args.json) {
    std::printf("%s\n",
                ResultToJson(service, bundle.workload, tuner->name(),
                             result.best_config,
                             service.TrueImprovement(result.best_config),
                             registry != nullptr ? &snapshot : nullptr)
                    .c_str());
  }
  if (args.show_layout) {
    std::printf("\nbudget allocation layout (%zu calls):\n",
                service.layout().size());
    for (size_t i = 0; i < service.layout().size(); ++i) {
      const LayoutEntry& e = service.layout()[i];
      std::printf("  %4zu  q%-4d %s\n", i + 1, e.query_id,
                  e.config.ToString().c_str());
    }
  }
  return 0;
}
