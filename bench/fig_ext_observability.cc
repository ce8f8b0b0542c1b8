// Extension figure: observability overhead. Runs the same tuning spec with
// the observability layer off and on (metrics registry + tracer attached)
// and reports the median wall-clock overhead of instrumentation, against
// the <2% design target. Also writes one Chrome trace_event JSON file and
// validates it against the schema Perfetto expects.
//
// Set BATI_SCALE=full for more repetitions.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "harness/experiment.h"
#include "obs/tracer.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Minimum over reps: the classic low-noise estimator for a deterministic
/// workload — scheduler and frequency noise only ever add time, so the
/// minimum is the closest observation to the true cost of each side.
double MinSeconds(const std::vector<double>& xs) {
  return *std::min_element(xs.begin(), xs.end());
}

/// Wall seconds for one RunOnce with the given observability switches.
double TimeRun(const bati::WorkloadBundle& bundle, bati::RunSpec spec,
               bool observed) {
  spec.collect_metrics = observed;
  spec.trace_buffer = observed ? bati::Tracer::kDefaultCapacity : 0;
  const auto t0 = Clock::now();
  bati::RunOutcome outcome = bati::RunOnce(bundle, spec);
  const auto t1 = Clock::now();
  // Keep the outcome alive so the compiler cannot elide the run.
  if (outcome.calls_used < 0) std::abort();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  using namespace bati;
  const char* env = std::getenv("BATI_SCALE");
  const bool full = env != nullptr && std::string(env) == "full";
  const int reps = full ? 25 : 15;

  struct Cell {
    const char* workload;
    const char* algorithm;
    int64_t budget;
  };
  // Runs must be long enough that a 2% difference clears timer noise; the
  // toy workload finishes in ~100us and cannot resolve it, so the overhead
  // table uses the paper's benchmark workloads at real budgets.
  const std::vector<Cell> cells = {
      {"tpch", "two-phase-greedy", 2000},
      {"tpch", "mcts", 2000},
      {"tpcds", "two-phase-greedy", 2000},
      {"tpcds", "mcts", 2000},
  };

  std::printf("# Extension figure: observability overhead "
              "(min of %d reps, target < 2%%)\n",
              reps);
  std::printf("%-10s %-18s %10s %12s %12s %10s\n", "workload", "algorithm",
              "budget", "off_s", "on_s", "overhead");
  double worst_pct = 0.0;
  for (const Cell& cell : cells) {
    const WorkloadBundle& bundle = LoadBundle(cell.workload);
    RunSpec spec;
    spec.workload = cell.workload;
    spec.algorithm = cell.algorithm;
    spec.budget = cell.budget;
    spec.max_indexes = 5;
    // Warm the bundle cache and code paths once, unmeasured.
    TimeRun(bundle, spec, /*observed=*/false);
    std::vector<double> off_s, on_s;
    // Interleave off/on reps so drift (frequency scaling, cache state)
    // affects both sides equally.
    for (int r = 0; r < reps; ++r) {
      off_s.push_back(TimeRun(bundle, spec, /*observed=*/false));
      on_s.push_back(TimeRun(bundle, spec, /*observed=*/true));
    }
    const double off = MinSeconds(off_s);
    const double on = MinSeconds(on_s);
    const double pct = off > 0.0 ? (on - off) / off * 100.0 : 0.0;
    worst_pct = std::max(worst_pct, pct);
    std::printf("%-10s %-18s %10lld %12.4f %12.4f %+9.2f%%\n", cell.workload,
                cell.algorithm, static_cast<long long>(cell.budget), off, on,
                pct);
    std::fflush(stdout);
  }
  std::printf("\nworst-case overhead: %+.2f%% (target < 2%%)\n", worst_pct);

  // One traced run, exported and validated against the Chrome trace_event
  // schema (the same check tests/tracer_test.cc pins down).
  const std::string trace_path = "/tmp/bati_fig_ext_observability.trace.json";
  {
    const WorkloadBundle& bundle = LoadBundle("toy");
    RunSpec spec;
    spec.workload = "toy";
    spec.algorithm = "two-phase-greedy";
    spec.budget = 200;
    spec.max_indexes = 5;
    spec.collect_metrics = true;
    spec.trace_path = trace_path;
    RunOutcome outcome = RunOnce(bundle, spec);
    const StatusOr<std::string> json = ReadFileToString(trace_path);
    if (!json.ok()) {
      std::fprintf(stderr, "FAIL: trace file %s not written\n",
                   trace_path.c_str());
      return 1;
    }
    size_t num_events = 0;
    const Status st = Tracer::ValidateChromeJson(*json, &num_events);
    if (!st.ok()) {
      std::fprintf(stderr, "FAIL: trace schema validation: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("trace: %s — %zu events (%llu dropped), schema OK\n",
                trace_path.c_str(), num_events,
                static_cast<unsigned long long>(outcome.trace_dropped));
  }
  return 0;
}
