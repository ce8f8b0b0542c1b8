// Tracked execution-backed validation benchmark, the BENCH_exec.json
// trajectory. For each workload it materializes a real in-memory store,
// executes a cost-spread set of index configurations end to end (real
// B+-tree seeks and joins, following the what-if optimizer's own plans),
// and reports the rank correlation between what-if cost ordering and
// measured wall-clock:
//
//  * spearman_combined — Spearman over per-configuration totals built from
//    per-query minima pooled across every pass and repetition (the gated
//    number: most resistant to scheduler noise);
//  * spearman_per_pass / spearman_min — one value per measurement pass,
//    the run-to-run reproducibility signal;
//  * kendall — Kendall tau-b over the same combined totals.
//
// Results land in a JSON file (--out, default BENCH_exec.json). The run
// exits nonzero when any gated workload's spearman_combined falls below
// --min-correlation (default 0.6), or — with --baseline pointing at a
// committed previous result — drops by more than --max-regression (default
// 0.05, absolute correlation units) below the baseline's value.
//
// Usage:
//   bench_exec [--out PATH] [--baseline PATH] [--max-regression X]
//              [--min-correlation X] [--quick]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "exec/harness.h"
#include "tuner/candidate_gen.h"
#include "workload/generators.h"

namespace bati {
namespace {

struct WorkloadSpec {
  const char* name;
  double scale;          // ignored by toy
  int num_configs;
  int sample_configs;
  int max_config_size;
  int repetitions;
  bool gated;            // participates in the correlation gates
};

struct WorkloadResult {
  WorkloadSpec spec;
  exec::CorrelationReport report;
};

std::string ToJson(const std::vector<WorkloadResult>& results) {
  std::string out = "{\n  \"suite\": \"exec_correlation\",\n";
  out += "  \"gate\": \"spearman_combined\",\n";
  out += "  \"workloads\": {\n";
  char buf[512];
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": {\n"
                  "      \"scale\": %g,\n"
                  "      \"gated\": %s,\n"
                  "      \"num_configs\": %d,\n"
                  "      \"store_rows\": %lld,\n"
                  "      \"validated\": %s,\n",
                  r.spec.name, r.spec.scale, r.spec.gated ? "true" : "false",
                  r.report.num_configs,
                  static_cast<long long>(r.report.store_rows),
                  r.report.validated ? "true" : "false");
    out += buf;
    out += "      \"spearman_per_pass\": [";
    for (size_t p = 0; p < r.report.spearman_per_pass.size(); ++p) {
      std::snprintf(buf, sizeof(buf), "%s%.4f", p == 0 ? "" : ", ",
                    r.report.spearman_per_pass[p]);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "],\n"
                  "      \"spearman_min\": %.4f,\n"
                  "      \"spearman_combined\": %.4f,\n"
                  "      \"kendall\": %.4f,\n",
                  r.report.spearman_min, r.report.spearman_combined,
                  r.report.kendall);
    out += buf;
    out += "      \"configs\": [\n";
    for (size_t ci = 0; ci < r.report.configs.size(); ++ci) {
      const exec::ConfigMeasurement& m = r.report.configs[ci];
      std::snprintf(buf, sizeof(buf),
                    "        {\"indexes\": %d, \"whatif_cost\": %.1f, "
                    "\"seconds_best\": %.6f}%s\n",
                    static_cast<int>(m.positions.size()), m.whatif_cost,
                    m.seconds_best,
                    ci + 1 < r.report.configs.size() ? "," : "");
      out += buf;
    }
    out += "      ]\n    }";
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  }\n}\n";
  return out;
}

/// Pulls `"spearman_combined": <number>` out of the baseline's
/// per-workload object. The format is our own ToJson() above, so a scan is
/// enough: find the workload key, then the first key after it.
bool BaselineCorrelation(const std::string& json, const std::string& workload,
                         double* value) {
  const size_t wpos = json.find("\"" + workload + "\"");
  if (wpos == std::string::npos) return false;
  const size_t spos = json.find("\"spearman_combined\":", wpos);
  if (spos == std::string::npos) return false;
  *value = std::strtod(json.c_str() + spos + 20, nullptr);
  return true;
}

int Run(int argc, char** argv) {
  std::string out_path = "BENCH_exec.json";
  std::string baseline_path;
  double max_regression = 0.05;
  double min_correlation = 0.6;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--max-regression") {
      max_regression = std::strtod(next(), nullptr);
    } else if (arg == "--min-correlation") {
      min_correlation = std::strtod(next(), nullptr);
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_exec [--out PATH] [--baseline PATH] "
                   "[--max-regression X] [--min-correlation X] [--quick]\n");
      return 2;
    }
  }

  // Quick mode runs the toy workload only: fast enough for a local sanity
  // pass, still end-to-end through store, trees, executor, and harness.
  std::vector<WorkloadSpec> specs;
  specs.push_back(WorkloadSpec{"toy", 0.0, 8, quick ? 48 : 96, 4,
                               quick ? 2 : 3, /*gated=*/true});
  if (!quick) {
    specs.push_back(
        WorkloadSpec{"tpch", 0.01, 12, 192, 8, 4, /*gated=*/true});
  }

  std::vector<WorkloadResult> results;
  for (const WorkloadSpec& spec : specs) {
    WorkloadOptions wopts;
    if (spec.scale > 0.0) wopts.scale = spec.scale;
    const Workload w = MakeWorkloadByName(spec.name, wopts);
    if (w.database == nullptr) {
      std::fprintf(stderr, "[bench_exec] unknown workload %s\n", spec.name);
      return 2;
    }
    std::fprintf(stderr, "[bench_exec] %s: materializing store...\n",
                 spec.name);
    exec::ExecutionEngine engine(w, exec::StoreOptions{});
    const CandidateSet candidates = GenerateCandidates(w);

    exec::CorrelationOptions copts;
    copts.num_configs = spec.num_configs;
    copts.sample_configs = spec.sample_configs;
    copts.max_config_size = spec.max_config_size;
    copts.repetitions = spec.repetitions;
    copts.passes = 2;
    WorkloadResult r;
    r.spec = spec;
    r.report = exec::RunCorrelation(&engine, candidates.indexes, copts);
    std::fprintf(stderr,
                 "[bench_exec] %s: %d configs, spearman %.4f "
                 "(per-pass min %.4f), kendall %.4f, validated %s\n",
                 spec.name, r.report.num_configs, r.report.spearman_combined,
                 r.report.spearman_min, r.report.kendall,
                 r.report.validated ? "yes" : "no");
    results.push_back(std::move(r));
  }

  const std::string json = ToJson(results);
  Status st = AtomicWriteFile(out_path, json);
  if (!st.ok()) {
    std::fprintf(stderr, "[bench_exec] write %s: %s\n", out_path.c_str(),
                 st.ToString().c_str());
    return 2;
  }
  std::fprintf(stderr, "[bench_exec] wrote %s\n", out_path.c_str());

  std::string baseline;
  if (!baseline_path.empty()) {
    StatusOr<std::string> loaded = ReadFileToString(baseline_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "[bench_exec] baseline %s: %s\n",
                   baseline_path.c_str(),
                   loaded.status().ToString().c_str());
      return 2;
    }
    baseline = *std::move(loaded);
  }

  int failures = 0;
  for (const WorkloadResult& r : results) {
    if (!r.spec.gated) continue;
    const double got = r.report.spearman_combined;
    if (!r.report.validated) {
      std::fprintf(stderr, "[bench_exec] FAIL %s: not validated\n",
                   r.spec.name);
      ++failures;
    }
    if (got < min_correlation) {
      std::fprintf(stderr,
                   "[bench_exec] FAIL %s: spearman %.4f < floor %.4f\n",
                   r.spec.name, got, min_correlation);
      ++failures;
    }
    double base = 0.0;
    if (!baseline.empty() &&
        BaselineCorrelation(baseline, r.spec.name, &base)) {
      if (got < base - max_regression) {
        std::fprintf(stderr,
                     "[bench_exec] REGRESSION %s: spearman %.4f < %.4f "
                     "(baseline %.4f - %.2f)\n",
                     r.spec.name, got, base - max_regression, base,
                     max_regression);
        ++failures;
      } else {
        std::fprintf(stderr,
                     "[bench_exec] %s: spearman %.4f vs baseline %.4f, ok\n",
                     r.spec.name, got, base);
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bati

int main(int argc, char** argv) { return bati::Run(argc, argv); }
