// bati_tune: command-line front end for budget-aware index tuning.
//
//   bati_tune --workload tpcds --algorithm mcts --budget 2000 --k 10
//   bati_tune --workload tpch --minutes 5 --algorithm mcts --verbose
//   bati_tune --workload real-m --algorithm autoadmin-greedy --budget 1000
//             --storage-gb 78 --seed 3  (one line)
//
// Prints the recommendation as CREATE INDEX statements plus the measured
// improvement, what-if call usage, and (optionally) the layout trace.

#include <climits>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/flags.h"
#include "common/json.h"
#include "session/spec_json.h"
#include "session/tuning_session.h"
#include "tuner/time_budget.h"
#include "whatif/trace_io.h"
#include "workload/loader.h"

namespace {

/// The flags a spec line has no key for; every run flag becomes a spec
/// field (see ParseArgs).
struct Args {
  std::string schema_file;  // DDL; used with --sql-file instead of --workload
  std::string sql_file;
  double minutes = 0.0;  // when > 0, derives the budget from time
  bool verbose = false;
  bool show_layout = false;
  std::string layout_csv;  // write the layout trace to this CSV file
  bool json = false;       // print a machine-readable result line
  int64_t crash_at_round = 0;  // simulate a crash at BeginRound(N)
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

/// The strict flag table of common/flags.h: unknown or malformed flags
/// make main() print usage and exit 2. The run flags (--budget,
/// --fault-rate, ...) are the spec-line keys of session/spec_json.h: they
/// land in `fields` and RunSpecFromFields() gives them the spec line's
/// bounds and wiring.
bool ParseArgs(int argc, char** argv, Args* args,
               std::vector<bati::JsonField>* fields) {
  bati::FlagParser parser;
  bati::AddRunSpecFlags(&parser, fields);
  parser.AddString("schema-file", &args->schema_file);
  parser.AddString("sql-file", &args->sql_file);
  parser.AddString("layout-csv", &args->layout_csv);
  parser.AddDouble("minutes", &args->minutes, /*min=*/0.0);
  parser.AddInt64("crash-at-round", &args->crash_at_round, /*min=*/0);
  parser.AddOptionalValue("metrics", &args->metrics, &args->metrics_file);
  parser.AddString("trace-out", &args->trace_out);
  parser.AddInt64("trace-buffer", &args->trace_buffer, /*min=*/1);
  parser.AddBool("layout", &args->show_layout);
  parser.AddBool("json", &args->json);
  parser.AddBool("verbose", &args->verbose);
  return parser.Parse(argc, argv);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bati;
  Args args;
  // bati_tune's defaults that a spec line lacks: the workload.
  std::vector<JsonField> fields(1);
  fields[0].key = "workload";
  fields[0].str = "tpch";
  if (!ParseArgs(argc, argv, &args, &fields)) {
    Usage(argv[0]);
    return 2;
  }
  RunSpec spec;
  if (const Status st = RunSpecFromFields(fields, &spec); !st.ok()) {
    std::fprintf(stderr, "invalid run flag: %s\n", st.message().c_str());
    Usage(argv[0]);
    return 2;
  }
  if (args.crash_at_round > INT_MAX) {
    std::fprintf(stderr, "--crash-at-round must be <= %d\n", INT_MAX);
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
    spec.workload = "user";
    bundle_ptr = &file_bundle;
  } else {
    // TryGet (not LoadBundle) so a misspelled name is a clean error, not a
    // CHECK failure.
    bundle_ptr = BundleRegistry::Global().TryGet(spec.workload);
    if (bundle_ptr == nullptr) {
      std::fprintf(stderr, "unknown workload: %s\n", spec.workload.c_str());
      return 1;
    }
  }
  const WorkloadBundle& bundle = *bundle_ptr;

  if (args.minutes > 0.0) {
    spec.budget = CallBudgetForTime(*bundle.optimizer, bundle.workload,
                                    args.minutes * 60.0);
    std::printf("time budget %.1f min -> %lld what-if calls\n", args.minutes,
                static_cast<long long>(spec.budget));
  }
  if (args.crash_at_round > 0 && spec.checkpoint_path.empty()) {
    std::fprintf(stderr, "--crash-at-round requires --checkpoint\n");
    return 2;
  }
  spec.faults.crash_at_round = static_cast<int>(args.crash_at_round);
  spec.collect_metrics = args.metrics;
  // The tool writes the trace itself (a failed write exits 1), so the
  // session only keeps the ring.
  if (!args.trace_out.empty() || args.trace_buffer > 0) {
    spec.trace_buffer = args.trace_buffer > 0
                            ? static_cast<size_t>(args.trace_buffer)
                            : Tracer::kDefaultCapacity;
  }

  SessionOptions session_options;
  session_options.capture_result_json = args.json;
  TuningSession session(bundle, spec, session_options);
  if (!session.resume_status().ok()) {
    std::fprintf(stderr, "resume failed: %s\n",
                 session.resume_status().ToString().c_str());
    return 1;
  }
  if (!spec.resume_path.empty()) {
    std::printf("resuming from %s\n", spec.resume_path.c_str());
  }
  std::printf("tuning %s (%d queries, %d candidates) with %s, budget=%lld, "
              "K=%d%s\n\n",
              spec.workload.c_str(), bundle.workload.num_queries(),
              bundle.candidates.size(), session.tuner().name().c_str(),
              static_cast<long long>(spec.budget), spec.max_indexes,
              spec.max_storage_bytes > 0 ? " (+storage constraint)" : "");
  const RunOutcome& outcome = session.Run();
  const CostService& service = session.service();
  const Config& best_config = session.result().best_config;

  const Database& db = *bundle.workload.database;
  std::printf("recommendation (%zu indexes):\n", best_config.count());
  double storage = 0.0;
  for (const Index& ix : service.Materialize(best_config)) {
    storage += ix.SizeBytes(db);
    std::printf("  CREATE INDEX %s;  -- %.1f MB\n", ix.Name(db).c_str(),
                ix.SizeBytes(db) / 1e6);
  }
  std::printf("\nwhat-if calls used:        %lld / %lld (%lld cache hits)\n",
              static_cast<long long>(service.calls_made()),
              static_cast<long long>(spec.budget),
              static_cast<long long>(service.cache_hits()));
  std::printf("estimated improvement:     %.2f%% (derived)\n",
              outcome.derived_improvement);
  std::printf("actual improvement:        %.2f%%\n",
              outcome.true_improvement);
  std::printf("total index storage:       %.2f GB\n", storage / 1e9);
  std::printf("simulated what-if time:    %.1f min\n",
              outcome.whatif_seconds / 60.0);
  std::printf("cost engine:               %s\n",
              outcome.engine.ToString().c_str());
  const CostEngineStats& es = outcome.engine;
  if (service.FaultsEnabled()) {
    std::printf("fault tolerance:           degraded=%lld cells, "
                "transient=%lld, sticky=%lld, timeout=%lld, retries=%lld\n",
                static_cast<long long>(es.degraded_cells),
                static_cast<long long>(es.fault_transient_errors),
                static_cast<long long>(es.fault_sticky_failures),
                static_cast<long long>(es.fault_timeouts),
                static_cast<long long>(es.retry_attempts));
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
                  static_cast<long long>(spec.budget));
    }
    if (gs.remaining_improvement_ub_pct >= 0.0) {
      std::printf("                           remaining improvement bound: "
                  "%.4f%% pts\n",
                  gs.remaining_improvement_ub_pct);
    }
  }

  if (args.verbose) {
    std::printf("\nper-query improvement:\n");
    std::vector<Index> chosen = service.Materialize(best_config);
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
  if (outcome.has_metrics) {
    if (!args.metrics_file.empty()) {
      bati::Status st = AtomicWriteFile(args.metrics_file,
                                        outcome.metrics.ToJson() + "\n");
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("metrics written to %s\n", args.metrics_file.c_str());
    } else {
      std::printf("\nmetrics:\n%s", outcome.metrics.ToText().c_str());
    }
  }
  if (const Tracer* tracer = session.tracer()) {
    if (!args.trace_out.empty()) {
      bati::Status st = tracer->WriteChromeJson(args.trace_out);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("trace written to %s (%zu events, %llu dropped)\n",
                  args.trace_out.c_str(), outcome.trace_events,
                  static_cast<unsigned long long>(outcome.trace_dropped));
      if (args.verbose) std::printf("%s", tracer->ToTextReport().c_str());
    } else {
      // --trace-buffer without --trace-out: report inline.
      std::printf("\n%s", tracer->ToTextReport().c_str());
    }
  }
  if (args.json) std::printf("%s\n", session.result_json().c_str());
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
