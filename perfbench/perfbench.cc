// perfbench: the end-to-end benchmark of the bati tuning stack.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Every layer is timed from outside, around calls into its public
// functions; nothing inside src/ is instrumented. With --trace 0 the run
// measures the end-to-end metrics (tuning runs through RunOnce, or a serve
// stream through ServeDaemon::ProcessLine, each in a closed loop of one
// caller). With --trace 1 it runs one untraced pass, then one traced pass
// that assembles the same pipeline by hand and times each layer, and
// reports the per-layer ledger. Either way the last stdout line is one
// JSON object: {"correct","attempted","failed","metrics"}. See README.md.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "exec/column_store.h"
#include "exec/store_cache.h"
#include "harness/experiment.h"
#include "serve/daemon.h"
#include "serve_stream.h"
#include "signal/exec_signal.h"
#include "whatif/cost_service.h"
#include "workload/binder.h"

namespace perfbench {
namespace {

using bati::CostEngineStats;
using bati::RunOutcome;
using bati::RunSpec;
using bati::WorkloadBundle;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Quantile by linear interpolation between order statistics (the
/// "type 7" estimator); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The result object: checks, operations and named metrics.
class Report {
 public:
  /// Counts one operation of the workload (tuning run or serve event).
  void Ops(int64_t n) { attempted_ += n; }

  /// Counts one correctness check; a failure marks the run incorrect.
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) Fail(1, what);
  }

  /// Counts `n` failed operations without a separate check.
  void Fail(int64_t n, const std::string& what) {
    failed_ += n;
    correct_ = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }

  void Put(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, value, unit);
  }

  double failed_frac() const {
    return Ratio(static_cast<double>(failed_), static_cast<double>(attempted_));
  }

  void PrintJson() const {
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " +
            std::to_string(std::max<int64_t>(1, attempted_));
    json += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, value, unit] = metrics_[i];
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(value) ? value : 0.0);
      if (i > 0) json += ", ";
      json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
              unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::tuple<std::string, double, std::string>> metrics_;
};

// ---------------------------------------------------------------------------
// Environment.

struct Env {
  int nproc = 0;  ///< CPUs this process may run on, as `nproc` reports
  unsigned hardware_concurrency = 0;
  int cpus_used = 0;       ///< after the min(nproc, 4) cap
  int executor_pool = 0;   ///< pool of the hand-assembled (traced) services
  int runonce_pool = 0;    ///< RunOnce's own pool: min(hw concurrency, 8)
  int serve_parallelism = 2;
};

constexpr int kCpuCap = 4;

/// Restricts the process (and every thread it starts later) to at most
/// kCpuCap CPUs. RunOnce sizes its executor pool from
/// hardware_concurrency, which no caller can override, so the CPU set is
/// what caps its parallelism at min(nproc, 4).
Env CapCpus() {
  Env env;
  env.hardware_concurrency = std::thread::hardware_concurrency();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    env.nproc = CPU_COUNT(&set);
    int kept = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &set)) continue;
      if (kept < kCpuCap) {
        ++kept;
      } else {
        CPU_CLR(cpu, &set);
      }
    }
    sched_setaffinity(0, sizeof(set), &set);
  } else {
    env.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  }
  env.cpus_used = std::min(env.nproc, kCpuCap);
  env.executor_pool = env.cpus_used;
  env.runonce_pool =
      static_cast<int>(std::min(std::max(1u, env.hardware_concurrency), 8u));
  return env;
}

/// Aggregate CPU jiffies from /proc/stat: {steal, total}. On a virtual
/// machine, steal is time the host ran someone else on our virtual CPUs;
/// it is recorded with each result because it moves every timing here.
std::pair<double, double> CpuJiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  double v[8] = {};
  const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0.0;
  for (double x : v) total += x;
  return {v[7], total};
}

// ---------------------------------------------------------------------------
// Set-up: building bundles, the daemon and the exec column stores.

/// Store options the exec-deterministic signal materializes with
/// (ExecSignalOptions defaults), so a prewarmed store is the one the
/// daemon's engines later share.
bati::exec::StoreOptions SignalStoreOptions() {
  const bati::ExecSignalOptions signal;
  bati::exec::StoreOptions options;
  options.seed = signal.store_seed;
  options.max_rows_per_table = signal.max_store_rows;
  return options;
}

bool ExecReady(const WorkloadBundle& bundle) {
  return bati::SignalEngineCache(bati::ExecSignalOptions()).Ready(bundle).ok();
}

struct SetupLedger {
  std::vector<double> total_s, generate_s, optimizer_s, candidates_s, store_s;
  double candidates = 0.0;
};

/// Builds a bundle the way BundleRegistry does (generate the workload,
/// construct the what-if optimizer, generate candidates), timing each step.
std::unique_ptr<WorkloadBundle> BuildBundle(const std::string& name,
                                            double* generate_s,
                                            double* optimizer_s,
                                            double* candidates_s) {
  auto bundle = std::make_unique<WorkloadBundle>();
  Clock::time_point t = Clock::now();
  bundle->workload = bati::MakeWorkloadByName(name);
  *generate_s += Since(t);
  t = Clock::now();
  bundle->optimizer =
      std::make_shared<bati::WhatIfOptimizer>(bundle->workload.database);
  *optimizer_s += Since(t);
  t = Clock::now();
  bundle->candidates = bati::GenerateCandidates(bundle->workload);
  *candidates_s += Since(t);
  return bundle;
}

/// One set-up sample over `workloads`; for serve (`daemon` set) it also
/// constructs a daemon and materializes the column store of every tenant
/// the exec signal accepts. Returns the last bundle built.
std::unique_ptr<WorkloadBundle> SetupSample(
    const std::vector<std::string>& workloads, const bati::ServeOptions* daemon,
    SetupLedger* ledger) {
  double generate = 0.0, optimizer = 0.0, candidates = 0.0, store = 0.0;
  const Clock::time_point start = Clock::now();
  std::unique_ptr<WorkloadBundle> bundle;
  double candidate_count = 0.0;
  for (const std::string& name : workloads) {
    bundle = BuildBundle(name, &generate, &optimizer, &candidates);
    candidate_count += bundle->candidates.indexes.size();
    if (daemon != nullptr && ExecReady(*bundle)) {
      const Clock::time_point t = Clock::now();
      bati::exec::ColumnStore materialized(*bundle->workload.database,
                                           SignalStoreOptions());
      store += Since(t);
    }
  }
  if (daemon != nullptr) bati::ServeDaemon constructed(*daemon);
  ledger->total_s.push_back(Since(start));
  ledger->generate_s.push_back(generate);
  ledger->optimizer_s.push_back(optimizer);
  ledger->candidates_s.push_back(candidates);
  ledger->store_s.push_back(store);
  ledger->candidates = candidate_count;
  return bundle;
}

/// Replays every query's SQL through the parser and binder; returns the
/// per-query times in microseconds.
std::vector<double> ParseBindReplay(const WorkloadBundle& bundle,
                                    Report* report) {
  std::vector<double> us;
  int failures = 0;
  for (const bati::Query& q : bundle.workload.queries) {
    const Clock::time_point t = Clock::now();
    const bati::StatusOr<bati::Query> bound =
        bati::BindSql(q.sql, *bundle.workload.database);
    us.push_back(Since(t) * 1e6);
    if (!bound.ok() || bound->scans.size() != q.scans.size() ||
        bound->joins.size() != q.joins.size()) {
      ++failures;
    }
  }
  report->Check(failures == 0, bundle.workload.name + ": " +
                                   std::to_string(failures) +
                                   " queries did not parse and bind back");
  return us;
}

void PutSetupLedger(const SetupLedger& s, const std::vector<double>& parse_us,
                    Report* report) {
  report->Put("workload.generate_s", Median(s.generate_s), "s");
  report->Put("sql.parse_bind_us", Median(parse_us), "us");
  report->Put("optimizer.init_s", Median(s.optimizer_s), "s");
  report->Put("tuner.candidate_gen_s", Median(s.candidates_s), "s");
  report->Put("tuner.candidates", s.candidates, "count");
  report->Put("exec.store_materialize_s", Median(s.store_s), "s");
}

// ---------------------------------------------------------------------------
// Tuning workloads.

struct TuneWorkload {
  const char* name;
  const char* workload;
  std::vector<std::string> algorithms;
  int64_t budget;
  int seeds;
};

const std::vector<TuneWorkload>& TuneWorkloads() {
  static const std::vector<TuneWorkload> kDefs = {
      {"tune-mcts-tpcds", "tpcds", {"mcts"}, 20000, 10},
      {"tune-greedy-realm",
       "real-m",
       {"vanilla-greedy", "two-phase-greedy", "autoadmin-greedy"},
       5000,
       1},
  };
  return kDefs;
}

std::vector<RunSpec> MakeSpecs(const TuneWorkload& def, uint64_t seed) {
  std::vector<RunSpec> specs;
  for (int s = 0; s < def.seeds; ++s) {
    for (const std::string& algorithm : def.algorithms) {
      RunSpec spec;
      spec.workload = def.workload;
      spec.algorithm = algorithm;
      spec.budget = def.budget;
      spec.seed = seed * 1000 + static_cast<uint64_t>(s) + 1;
      specs.push_back(spec);
    }
  }
  return specs;
}

bool SameOutcome(const RunOutcome& a, double true_improvement,
                 int64_t calls_used, const std::vector<size_t>& positions) {
  return a.true_improvement == true_improvement &&
         a.calls_used == calls_used && a.config_positions == positions;
}

void CheckOutcome(const RunSpec& spec, const RunOutcome& o, Report* report) {
  report->Check(o.calls_used <= spec.budget &&
                    static_cast<int>(o.config_size) <= spec.max_indexes &&
                    std::isfinite(o.true_improvement) &&
                    o.true_improvement >= 0.0 && o.true_improvement <= 100.0,
                spec.algorithm + " seed " + std::to_string(spec.seed) +
                    ": outcome out of range");
}

/// Layer totals of one or more hand-assembled tuning runs.
struct TuneLedger {
  int runs = 0;
  double service_init_s = 0.0, tune_s = 0.0, evaluate_s = 0.0;
  double whatif_sim_s = 0.0, other_sim_s = 0.0;
  CostEngineStats engine;  ///< counters summed over runs
  int64_t memo_hits = 0, memo_misses = 0;
  std::vector<double> derived_us, delta_us, optimizer_us;
};

constexpr size_t kProbeCells = 512;

/// Probes the finished service: replays up to kProbeCells of the run's
/// layout cells through DerivedCost, DerivedCostDeltaAdd (adding a
/// candidate of the cell's query that the cell lacks) and the optimizer.
void Probe(const WorkloadBundle& bundle, const bati::CostService& service,
           TuneLedger* ledger) {
  const std::vector<bati::LayoutEntry>& layout = service.layout();
  if (layout.empty()) return;
  const size_t step = std::max<size_t>(1, layout.size() / kProbeCells);
  for (size_t i = 0; i < layout.size(); i += step) {
    const bati::LayoutEntry& cell = layout[i];
    Clock::time_point t = Clock::now();
    service.DerivedCost(cell.query_id, cell.config);
    ledger->derived_us.push_back(Since(t) * 1e6);

    const size_t q = static_cast<size_t>(cell.query_id);
    for (int pos : bundle.candidates.per_query[q]) {
      if (cell.config.test(static_cast<size_t>(pos))) continue;
      t = Clock::now();
      service.DerivedCostDeltaAdd(cell.query_id, cell.config,
                                          static_cast<size_t>(pos));
      ledger->delta_us.push_back(Since(t) * 1e6);
      break;
    }

    const std::vector<bati::Index> indexes = service.Materialize(cell.config);
    const bati::Query& query = bundle.workload.queries[q];
    t = Clock::now();
    bundle.optimizer->Cost(query, indexes);
    ledger->optimizer_us.push_back(Since(t) * 1e6);
  }
}

void AddEngine(const CostEngineStats& s, CostEngineStats* sum) {
  sum->what_if_calls += s.what_if_calls;
  sum->cache_hits += s.cache_hits;
  sum->batched_cells += s.batched_cells;
  sum->derived_lookups += s.derived_lookups;
  sum->delta_lookups += s.delta_lookups;
  sum->index_pruned_entries += s.index_pruned_entries;
  sum->index_scanned_entries += s.index_scanned_entries;
  sum->executor_wall_seconds += s.executor_wall_seconds;
}

/// Runs `spec` as CostService ctor -> MakeTuner -> Tune -> TrueImprovement,
/// timing each step, checks the outcome against `reference` (the RunOnce
/// outcome of the same spec), then probes the finished service. Returns
/// the wall time of the pipeline alone (probes excluded).
double RunTraced(const WorkloadBundle& bundle, const RunSpec& spec,
                 const RunOutcome& reference, int pool, TuneLedger* ledger,
                 Report* report) {
  bati::TuningContext ctx;
  ctx.workload = &bundle.workload;
  ctx.candidates = &bundle.candidates;
  ctx.constraints.max_indexes = spec.max_indexes;
  ctx.constraints.max_storage_bytes = spec.max_storage_bytes;
  bati::CostEngineOptions options;
  options.run_identity = bati::RunIdentity(spec);
  options.whatif_pool_size = pool;
  const bati::PlanMemoStats memo_before = bundle.optimizer->memo_stats();

  const Clock::time_point start = Clock::now();
  bati::CostService service(bundle.optimizer.get(), &bundle.workload,
                            &bundle.candidates.indexes, spec.budget, options);
  const double init_s = Since(start);
  Clock::time_point t = Clock::now();
  std::unique_ptr<bati::Tuner> tuner =
      bati::MakeTuner(spec.algorithm, ctx, spec.seed);
  const bati::TuningResult result = tuner->Tune(service);
  const double tune_s = Since(t);
  t = Clock::now();
  const double true_improvement = service.TrueImprovement(result.best_config);
  const double evaluate_s = Since(t);
  const double wall_s = Since(start);

  const bati::PlanMemoStats memo_after = bundle.optimizer->memo_stats();
  ledger->runs += 1;
  ledger->service_init_s += init_s;
  ledger->tune_s += tune_s;
  ledger->evaluate_s += evaluate_s;
  ledger->whatif_sim_s += reference.whatif_seconds;
  ledger->other_sim_s += reference.other_seconds;
  AddEngine(service.EngineStats(), &ledger->engine);
  ledger->memo_hits += memo_after.hits - memo_before.hits;
  ledger->memo_misses += memo_after.misses - memo_before.misses;

  report->Check(SameOutcome(reference, true_improvement, service.calls_made(),
                            result.best_config.ToIndices()),
                spec.workload + " " + spec.algorithm + " seed " +
                    std::to_string(spec.seed) +
                    ": hand-assembled run differs from RunOnce");
  Probe(bundle, service, ledger);
  return wall_s;
}

void PutTuneLedger(const TuneLedger& l, Report* report) {
  const double n = std::max(1, l.runs);
  const CostEngineStats& e = l.engine;
  report->Put("whatif.service_init_s", l.service_init_s / n, "s");
  report->Put("tuner.tune_s", l.tune_s / n, "s");
  report->Put("session.evaluate_s", l.evaluate_s / n, "s");
  report->Put("whatif.executor_wall_s", e.executor_wall_seconds / n, "s");
  report->Put("tuner.other_s", (l.tune_s - e.executor_wall_seconds) / n, "s");
  report->Put("whatif.wall_share", Ratio(e.executor_wall_seconds, l.tune_s),
              "frac");
  report->Put("whatif.sim_share",
              Ratio(l.whatif_sim_s, l.whatif_sim_s + l.other_sim_s), "frac");
  report->Put("whatif.derived_lookups", e.derived_lookups / n, "count");
  report->Put("whatif.index_scanned_entries", e.index_scanned_entries / n,
              "count");
  report->Put("whatif.index_pruned_frac",
              Ratio(static_cast<double>(e.index_pruned_entries),
                    static_cast<double>(e.index_pruned_entries +
                                        e.index_scanned_entries)),
              "frac");
  report->Put("whatif.derived_cost_us_p50", Median(l.derived_us), "us");
  report->Put("whatif.delta_lookups", e.delta_lookups / n, "count");
  report->Put("whatif.delta_add_us_p50", Median(l.delta_us), "us");
  report->Put("whatif.calls", e.what_if_calls / n, "count");
  report->Put("whatif.cache_hits", e.cache_hits / n, "count");
  report->Put("whatif.batched_frac",
              Ratio(static_cast<double>(e.batched_cells),
                    static_cast<double>(e.what_if_calls)),
              "frac");
  report->Put("optimizer.cost_us_p50", Median(l.optimizer_us), "us");
  report->Put("optimizer.memo_hit_rate",
              Ratio(static_cast<double>(l.memo_hits),
                    static_cast<double>(l.memo_hits + l.memo_misses)),
              "frac");
}

// ---------------------------------------------------------------------------
// Serve workload.

/// What the untraced and traced serve passes measure.
struct ServePass {
  std::string output;
  double wall_s = 0.0;
  int64_t events = 0;
  std::vector<double> event_us;  ///< every ProcessLine call
  std::vector<double> apply_us;  ///< calls emitting a tune result or deploy
  std::vector<double> query_us, control_us;  ///< traced: the other calls
  bati::MetricsSnapshot metrics;             ///< traced only
};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

bool EmitsDecision(const std::string& out) {
  return out.find("\"type\":\"tune-result\"") != std::string::npos ||
         StartsWith(out, "{\"type\":\"deploy\"");
}

ServePass RunServePass(const std::vector<std::string>& lines,
                       const bati::ServeOptions& options, bool traced) {
  ServePass pass;
  pass.event_us.reserve(lines.size());
  bati::ServeDaemon daemon(options);
  std::string out;
  for (const std::string& line : lines) {
    out.clear();
    const Clock::time_point t = Clock::now();
    daemon.ProcessLine(line, &out);
    const double us = Since(t) * 1e6;
    pass.wall_s += us * 1e-6;
    pass.event_us.push_back(us);
    if (EmitsDecision(out)) {
      pass.apply_us.push_back(us);
    } else if (traced) {
      (StartsWith(line, "{\"type\":\"query\"") ? pass.query_us
                                               : pass.control_us)
          .push_back(us);
    }
    pass.output += out;
  }
  out.clear();
  const Clock::time_point t = Clock::now();
  daemon.Finish(&out);
  pass.wall_s += Since(t);
  pass.output += out;
  pass.events = static_cast<int64_t>(lines.size());
  if (traced) pass.metrics = daemon.metrics().Snapshot();
  return pass;
}

/// Numeric field `key` of one output line (0 when absent).
double Field(const std::string& line, const char* key) {
  const size_t at = line.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + std::strlen(key), nullptr);
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// Tune results of a pass: mean improvement and total calls charged.
struct ServeOutcome {
  int64_t tune_results = 0;
  int64_t calls = 0;
  double improvement_sum = 0.0;
  int64_t error_lines = 0;
};

ServeOutcome CheckServeOutput(const std::string& output,
                              const std::vector<StreamTenant>& tenants,
                              double safety_bound, Report* report) {
  const std::vector<std::string> lines = SplitLines(output);
  ServeOutcome o;
  bool retune = false, full_eval = false;
  for (const std::string& line : lines) {
    if (StartsWith(line, "{\"type\":\"error\"")) ++o.error_lines;
    if (line.find("\"retune\":") != std::string::npos) retune = true;
    if (line.find("\"estimated\":false") != std::string::npos) full_eval = true;
    if (StartsWith(line, "{\"type\":\"tune-result\"") &&
        line.find("\"improvement\":") != std::string::npos) {
      ++o.tune_results;
      o.improvement_sum += Field(line, "\"improvement\":");
      o.calls += static_cast<int64_t>(Field(line, "\"calls\":"));
    }
  }
  report->Check(o.error_lines == 0, "serve output holds " +
                                        std::to_string(o.error_lines) +
                                        " error lines");
  if (o.error_lines > 0) report->Fail(o.error_lines, "serve error lines");
  report->Check(retune, "serve output shows no drift re-tune");
  report->Check(full_eval, "serve output shows no \"estimated\":false "
                           "evaluation");
  report->Check(o.tune_results > 0, "serve output holds no tune result");
  // The stream ends with one drop-every-index deploy per tenant. The
  // safety guard must roll back exactly those whose regression on the live
  // window exceeds the bound (a tenant whose indexes help its current
  // window by less than the bound may ship the drop), and it must fire at
  // least once.
  bool rolled_back = false;
  for (size_t i = 0; i < tenants.size() && lines.size() >= tenants.size();
       ++i) {
    const std::string& line = lines[lines.size() - tenants.size() + i];
    const bool rollback =
        line.find("\"action\":\"safety-rollback\"") != std::string::npos;
    const bool guarded =
        rollback == (Field(line, "\"regression\":") > safety_bound);
    rolled_back = rolled_back || rollback;
    report->Check(StartsWith(line, ("{\"type\":\"deploy\",\"tenant\":\"" +
                                    tenants[i].name + "\"")
                                       .c_str()) &&
                      guarded,
                  "drop-every-index deploy judged against the safety "
                  "bound: " + line);
  }
  report->Check(rolled_back, "no drop-every-index deploy was rolled back");
  return o;
}

std::vector<StreamTenant> ServeTenants(uint64_t seed) {
  std::vector<StreamTenant> tenants = {
      {"toy-bandit", "toy", "dba-bandits", 60},
      {"tpch-mcts", "tpch", "mcts", 300},
      {"tpcds-2p", "tpcds", "two-phase-greedy", 300},
      {"job-vg", "job", "vanilla-greedy", 200},
  };
  for (size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].seed = seed * 1000 + i + 1;
  }
  return tenants;
}

std::vector<std::string> TenantWorkloads(const std::vector<StreamTenant>& t) {
  std::vector<std::string> names;
  for (const StreamTenant& tenant : t) names.push_back(tenant.workload);
  return names;
}

// ---------------------------------------------------------------------------
// Runs.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-up is sampled at least kSetupMinSamples times and, while the
/// samples take less than kSetupMinSeconds, up to kSetupMaxSamples times:
/// sub-millisecond set-ups need many samples for a steady median.
constexpr int kSetupMinSamples = 5;
constexpr int kSetupMaxSamples = 200;
constexpr double kSetupMinSeconds = 1.0;

bool MoreSetupSamples(int taken, Clock::time_point start) {
  return taken < kSetupMinSamples ||
         (taken < kSetupMaxSamples && Since(start) < kSetupMinSeconds);
}

/// Budget of the untimed warm-up run per algorithm.
constexpr int64_t kWarmupBudget = 500;

/// End-to-end metric values shared by both kinds of workload.
struct EndToEnd {
  double setup_s = 0.0;
  std::vector<double> op_ms;
  double wall_s = 0.0;
  int64_t ops = 0;
  int64_t calls = 0;
  double improvement_pct = 0.0;
  int64_t runs = 0;  ///< operations timed
  // Serve only.
  std::vector<double> apply_ms;
};

void PutEndToEnd(const EndToEnd& e, Report* report) {
  report->Put("setup_s", e.setup_s, "s");
  report->Put("op_ms_p50", Median(e.op_ms), "ms");
  report->Put("ops_per_s", Ratio(static_cast<double>(e.ops), e.wall_s), "1/s");
  report->Put("budget_calls_per_s",
              Ratio(static_cast<double>(e.calls), e.wall_s), "1/s");
  report->Put("improvement_pct", e.improvement_pct, "%");
  report->Put("peak_rss_mb", PeakRssMb(), "MB");
}

/// The headline metric table, for people reading the log: every
/// end-to-end quantity by name and unit, "n/a" where the workload has no
/// such unit of work.
void PrintTable(const EndToEnd& e, bool serve, double failed_frac) {
  const auto row = [](const char* name, const char* unit, bool have,
                      double value) {
    if (have) {
      std::printf("  %-22s %14.6g %s\n", name, value, unit);
    } else {
      std::printf("  %-22s %14s %s\n", name, "n/a", unit);
    }
  };
  const double ops_per_s = Ratio(static_cast<double>(e.ops), e.wall_s);
  std::printf("perfbench end-to-end (n = %lld operations timed):\n",
              static_cast<long long>(e.runs));
  row("setup_s", "s", true, e.setup_s);
  row("tune_s_p50", "s", !serve, Median(e.op_ms) / 1e3);
  row("budget_calls_per_s", "1/s", true,
      Ratio(static_cast<double>(e.calls), e.wall_s));
  row("improvement_pct", "%", true, e.improvement_pct);
  row("serve_events_per_s", "1/s", serve, ops_per_s);
  row("serve_event_us_p50", "us", serve, Median(e.op_ms) * 1e3);
  row("serve_event_us_p99", "us", serve, Quantile(e.op_ms, 0.99) * 1e3);
  row("serve_apply_ms_p50", "ms", serve, Median(e.apply_ms));
  row("failed_frac", "frac", true, failed_frac);
  row("peak_rss_mb", "MB", true, PeakRssMb());
}

void RunTuning(const TuneWorkload& def, const Args& args, const Env& env,
               Report* report) {
  EndToEnd e;
  SetupLedger setup;
  std::unique_ptr<WorkloadBundle> bundle;
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; MoreSetupSamples(i, setup_start); ++i) {
    bundle = SetupSample({def.workload}, nullptr, &setup);
  }
  e.setup_s = Median(setup.total_s);

  const std::vector<RunSpec> specs = MakeSpecs(def, args.seed);
  // Warm-up: one short run per algorithm fills the bundle optimizer's plan
  // memo and faults in the code and heap the timed runs use, so the first
  // timed run is not the only cold one.
  for (const std::string& algorithm : def.algorithms) {
    RunSpec warm = specs.front();
    warm.algorithm = algorithm;
    warm.budget = std::min<int64_t>(warm.budget, kWarmupBudget);
    bati::RunOnce(*bundle, warm);
  }

  std::vector<RunOutcome> first;
  std::vector<std::vector<double>> spec_s(specs.size());
  double untraced_pass_s = 0.0;
  const Clock::time_point start = Clock::now();
  // Closed loop, one run at a time: one full pass over the specs, then
  // further runs of every spec that still fits in the measuring time
  // (judged by the spec's first run, so greedy-realm's 10 s run never
  // overshoots while its sub-second siblings keep repeating). With tracing
  // on, exactly one untraced pass runs (the overhead baseline).
  size_t misses = 0;  // consecutive specs that no longer fit
  for (size_t i = 0; misses < specs.size(); ++i) {
    const size_t k = i % specs.size();
    if (i >= specs.size()) {
      if (args.trace) break;
      if (Since(start) + spec_s[k].front() > args.seconds) {
        ++misses;
        continue;
      }
      misses = 0;
    }
    const RunSpec& spec = specs[k];
    const Clock::time_point t = Clock::now();
    const RunOutcome o = bati::RunOnce(*bundle, spec);
    const double dt = Since(t);
    report->Ops(1);
    spec_s[k].push_back(dt);
    if (i < specs.size()) {
      untraced_pass_s += dt;
      CheckOutcome(spec, o, report);
      first.push_back(o);
    } else {
      report->Check(SameOutcome(o, first[k].true_improvement,
                                first[k].calls_used,
                                first[k].config_positions),
                    spec.algorithm + " seed " + std::to_string(spec.seed) +
                        ": repeated run differs");
    }
  }
  // A spec's time is the median of its runs; the pass is every spec once.
  // Specs differ in work (greedy-realm mixes a 10 s run with sub-second
  // ones), so per-spec medians keep the metrics independent of how many
  // repetitions of which spec fitted in the measuring time.
  for (size_t k = 0; k < specs.size(); ++k) {
    const double s = Median(spec_s[k]);
    e.op_ms.push_back(s * 1e3);
    e.wall_s += s;
    e.ops += 1;
    e.calls += first[k].calls_used;
    e.improvement_pct += first[k].true_improvement;
    e.runs += static_cast<int64_t>(spec_s[k].size());
  }
  e.improvement_pct /= static_cast<double>(specs.size());

  if (!args.trace) {
    PrintTable(e, /*serve=*/false, report->failed_frac());
    PutEndToEnd(e, report);
    return;
  }
  PutSetupLedger(setup, ParseBindReplay(*bundle, report), report);
  TuneLedger ledger;
  double traced_pass_s = 0.0;
  for (size_t i = 0; i < specs.size(); ++i) {
    traced_pass_s += RunTraced(*bundle, specs[i], first[i], env.executor_pool,
                               &ledger, report);
  }
  PutTuneLedger(ledger, report);
  for (const char* name :
       {"serve.query_us_p50", "serve.query_us_p99", "serve.control_us_p50",
        "serve.event_us_p99", "serve.apply_ms_p50"}) {
    report->Put(name, 0.0, StartsWith(name, "serve.apply") ? "ms" : "us");
  }
  for (const char* name :
       {"serve.tunes", "serve.drift", "signal.evals", "signal.fallbacks",
        "exec.seqscan_rows", "exec.index_entries", "exec.trees_built"}) {
    report->Put(name, 0.0, "count");
  }
  report->Put("trace.overhead_frac", traced_pass_s / untraced_pass_s - 1.0,
              "frac");
}

/// Query events per second of --seconds: sized so one pass of the stream
/// takes about the measuring time on a 4-vCPU x86 virtual machine (about
/// 28 s for 600k query events), so each run measures exactly one pass.
constexpr double kQueriesPerSecond = 20000.0;

void RunServe(const Args& args, const Env& env, Report* report) {
  bati::ServeOptions options;
  options.parallelism = env.serve_parallelism;
  options.signal = bati::SignalKind::kDeterministicExec;

  EndToEnd e;
  SetupLedger setup;
  std::vector<StreamTenant> tenants = ServeTenants(args.seed);
  const std::vector<std::string> workloads = TenantWorkloads(tenants);
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; MoreSetupSamples(i, setup_start); ++i) {
    SetupSample(workloads, &options, &setup);
  }
  e.setup_s = Median(setup.total_s);

  // The daemon resolves tenants through the process-wide registry and the
  // exec signal through the process-wide store cache: fill both before the
  // stream starts, so no event pays for a first-use build.
  for (StreamTenant& t : tenants) {
    const WorkloadBundle& bundle = bati::LoadBundle(t.workload);
    t.num_queries = bundle.workload.num_queries();
    t.num_candidates = static_cast<int>(bundle.candidates.indexes.size());
    if (ExecReady(bundle)) {
      bati::exec::GetOrMaterializeStore(bundle.workload.database,
                                        SignalStoreOptions());
    }
  }
  const std::vector<std::string> lines = MakeServeStream(
      tenants, static_cast<int64_t>(kQueriesPerSecond * args.seconds),
      args.seed);

  // One pass of the whole stream, one caller, closed loop.
  ServePass p = RunServePass(lines, options, /*traced=*/false);
  report->Ops(p.events);
  e.wall_s = p.wall_s;
  e.ops = p.events;
  e.runs = p.events;
  for (double us : p.event_us) e.op_ms.push_back(us * 1e-3);
  for (double us : p.apply_us) e.apply_ms.push_back(us * 1e-3);
  const ServeOutcome o =
      CheckServeOutput(p.output, tenants, options.safety_bound, report);
  e.calls = o.calls;
  e.improvement_pct = Ratio(o.improvement_sum, o.tune_results);

  if (!args.trace) {
    PrintTable(e, /*serve=*/true, report->failed_frac());
    PutEndToEnd(e, report);
    return;
  }
  std::vector<double> parse_us;
  TuneLedger ledger;
  for (const StreamTenant& t : tenants) {
    const WorkloadBundle& bundle = bati::LoadBundle(t.workload);
    const std::vector<double> us = ParseBindReplay(bundle, report);
    parse_us.insert(parse_us.end(), us.begin(), us.end());
    RunSpec spec;
    spec.workload = t.workload;
    spec.algorithm = t.algorithm;
    spec.budget = t.budget;
    spec.seed = t.seed;
    const RunOutcome reference_run = bati::RunOnce(bundle, spec);
    RunTraced(bundle, spec, reference_run, env.executor_pool, &ledger, report);
  }
  PutSetupLedger(setup, parse_us, report);
  PutTuneLedger(ledger, report);

  ServePass traced = RunServePass(lines, options, /*traced=*/true);
  report->Ops(traced.events);
  report->Check(traced.output == p.output,
                "serve output differs between untraced and traced passes");
  report->Put("serve.query_us_p50", Median(traced.query_us), "us");
  report->Put("serve.query_us_p99", Quantile(traced.query_us, 0.99), "us");
  report->Put("serve.control_us_p50", Median(traced.control_us), "us");
  report->Put("serve.event_us_p99", Quantile(traced.event_us, 0.99), "us");
  report->Put("serve.apply_ms_p50", Median(traced.apply_us) * 1e-3, "ms");
  const bati::MetricsSnapshot& m = traced.metrics;
  report->Put("serve.tunes", m.CounterValue("serve.tunes"), "count");
  report->Put("serve.drift", m.CounterValue("serve.drift"), "count");
  report->Put("signal.evals", m.CounterValue("serve.signal.evals"), "count");
  report->Put("signal.fallbacks", m.CounterValue("serve.signal.fallbacks"),
              "count");
  report->Put("exec.seqscan_rows", m.CounterValue("exec.seqscan.rows"),
              "count");
  report->Put("exec.index_entries", m.CounterValue("exec.index.entries"),
              "count");
  report->Put("exec.trees_built", m.CounterValue("exec.trees.built"),
              "count");
  report->Put("trace.overhead_frac", traced.wall_s / p.wall_s - 1.0,
              "frac");
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n  workloads: tune-mcts-tpcds tune-greedy-realm "
               "serve-drift-exec\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0) || args->seconds > 600.0) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  const TuneWorkload* tune = nullptr;
  for (const TuneWorkload& def : TuneWorkloads()) {
    if (args.workload == def.name) tune = &def;
  }
  if (tune == nullptr && args.workload != "serve-drift-exec") {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    Usage();
    return 2;
  }

  const Env env = CapCpus();
  std::printf(
      "perfbench env: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %d, \"hardware_concurrency\": %u, "
      "\"cpus_used\": %d, \"executor_pool\": %d, \"runonce_executor_pool\": "
      "%d, \"serve_parallelism\": %d, \"build_type\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, env.nproc, env.hardware_concurrency,
      env.cpus_used, env.executor_pool, env.runonce_pool,
      env.serve_parallelism, PERFBENCH_BUILD_TYPE);

  Report report;
  const std::pair<double, double> jiffies = CpuJiffies();
  if (tune != nullptr) {
    RunTuning(*tune, args, env, &report);
  } else {
    RunServe(args, env, &report);
  }
  const std::pair<double, double> after = CpuJiffies();
  std::printf("perfbench host: {\"steal_frac\": %.4f}\n",
              Ratio(after.first - jiffies.first,
                    after.second - jiffies.second));
  std::fflush(stderr);
  report.PrintJson();
  return 0;
}
