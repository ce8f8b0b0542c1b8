#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/stats.h"

namespace bati {

namespace {

/// Session parallelism for harness sweeps: BATI_SESSION_PARALLELISM when
/// set (values < 1 mean sequential), otherwise hardware concurrency capped
/// at 8 — figure sweeps are memory-light but each session holds its own
/// what-if cache, so an unbounded fan-out buys nothing.
int SweepParallelism() {
  const char* env = std::getenv("BATI_SESSION_PARALLELISM");
  if (env != nullptr) {
    const long parsed = std::strtol(env, nullptr, 10);
    return parsed >= 1 ? static_cast<int>(parsed) : 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 8u));
}

/// Specs with file side effects must not run concurrently with siblings
/// (checkpoints and traces would collide on their paths).
bool SpecWritesFiles(const RunSpec& spec) {
  return !spec.checkpoint_path.empty() || !spec.resume_path.empty() ||
         !spec.trace_path.empty();
}

}  // namespace

std::vector<double> RunSpecsTrueImprovements(
    const WorkloadBundle& bundle, const std::vector<RunSpec>& specs) {
  std::vector<double> improvements(specs.size(), 0.0);
  const int parallelism =
      std::min<int>(SweepParallelism(), static_cast<int>(specs.size()));
  // The manager resolves workloads through the global registry, so the
  // concurrent path requires `bundle` to be the registry's own (ad-hoc
  // bundles — e.g. loaded from user SQL files — run sequentially, as do
  // specs that write files).
  bool concurrent = specs.size() > 1 && parallelism > 1;
  if (concurrent) {
    for (const RunSpec& spec : specs) {
      if (SpecWritesFiles(spec) ||
          BundleRegistry::Global().TryGet(spec.workload) != &bundle) {
        concurrent = false;
        break;
      }
    }
  }
  if (!concurrent) {
    for (size_t i = 0; i < specs.size(); ++i) {
      improvements[i] = RunOnce(bundle, specs[i]).true_improvement;
    }
    return improvements;
  }
  SessionManagerOptions options;
  options.parallelism = parallelism;
  SessionManager manager(options);
  for (const RunSpec& spec : specs) manager.Submit(spec);
  const std::vector<SessionResult> results = manager.Drain();
  // Drain() sorts by submission id, which is exactly input order.
  for (size_t i = 0; i < results.size(); ++i) {
    improvements[i] = results[i].outcome.true_improvement;
  }
  return improvements;
}

CellStats RunSeeds(const WorkloadBundle& bundle, RunSpec spec,
                   const std::vector<uint64_t>& seeds) {
  std::vector<RunSpec> specs;
  specs.reserve(seeds.size());
  for (uint64_t seed : seeds) {
    spec.seed = seed;
    specs.push_back(spec);
  }
  RunningStats stats;
  for (double improvement : RunSpecsTrueImprovements(bundle, specs)) {
    stats.Add(improvement);
  }
  return CellStats{stats.mean(), stats.stddev()};
}

BenchScale GetBenchScale() {
  const char* env = std::getenv("BATI_SCALE");
  bool full = env != nullptr && std::string(env) == "full";
  BenchScale scale;
  if (full) {
    scale.large_budgets = {1000, 2000, 3000, 4000, 5000};
    scale.small_budgets = {50, 100, 200, 500, 1000};
    scale.cardinalities = {5, 10, 20};
    scale.seeds = {1, 2, 3, 4, 5};
  } else {
    scale.large_budgets = {1000, 3000, 5000};
    scale.small_budgets = {50, 200, 1000};
    scale.cardinalities = {5, 10, 20};
    scale.seeds = {1, 2};
  }
  return scale;
}

void PrintSeriesTable(const std::string& title, const WorkloadBundle& bundle,
                      const std::vector<std::string>& algorithms,
                      const std::vector<int64_t>& budgets, int k,
                      double storage_bytes,
                      const std::vector<uint64_t>& seeds) {
  // Build the whole (budget, algorithm, seed) grid up front so every run
  // of the table shares one session batch; cell boundaries are recorded so
  // aggregation can walk the flat result vector in print order.
  std::vector<RunSpec> specs;
  std::vector<size_t> cell_sizes;
  for (int64_t budget : budgets) {
    for (const std::string& algo : algorithms) {
      RunSpec spec;
      spec.workload = bundle.workload.name;
      spec.algorithm = algo;
      spec.budget = budget;
      spec.max_indexes = k;
      spec.max_storage_bytes = storage_bytes;
      // Deterministic algorithms need only one run.
      const bool randomized = ParseAlgorithm(algo)->randomized();
      const std::vector<uint64_t> cell_seeds =
          randomized ? seeds : std::vector<uint64_t>{seeds.front()};
      for (uint64_t seed : cell_seeds) {
        spec.seed = seed;
        specs.push_back(spec);
      }
      cell_sizes.push_back(cell_seeds.size());
    }
  }
  const std::vector<double> improvements =
      RunSpecsTrueImprovements(bundle, specs);

  std::printf("# %s\n", title.c_str());
  std::printf("%-8s", "budget");
  for (const std::string& algo : algorithms) {
    std::printf("  %18s %6s", algo.c_str(), "sd");
  }
  std::printf("\n");
  size_t cell = 0;
  size_t offset = 0;
  for (int64_t budget : budgets) {
    std::printf("%-8lld", static_cast<long long>(budget));
    for (size_t a = 0; a < algorithms.size(); ++a) {
      RunningStats stats;
      for (size_t s = 0; s < cell_sizes[cell]; ++s) {
        stats.Add(improvements[offset + s]);
      }
      offset += cell_sizes[cell];
      ++cell;
      std::printf("  %18.2f %6.2f", stats.mean(), stats.stddev());
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\n");
}

}  // namespace bati
