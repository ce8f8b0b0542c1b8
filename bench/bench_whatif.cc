// Tracked benchmark for the what-if hot path, the refactor's BENCH_*.json
// trajectory. Measures, per workload (toy / tpch / tpcds / real-d-bench):
//
//  * single-thread Explain() throughput through the fast path (SoA
//    StatsView + memoized skeletons + arena scratch) and through the
//    preserved reference path, per-call p50/p95 latency, the fast/reference
//    speedup ratio, and the plan-memo hit rate.
//
// Results land in a JSON file (--out, default BENCH_whatif.json). With
// --baseline pointing at a committed previous result, the binary exits
// nonzero when any workload's fast/reference *speedup ratio* regressed by
// more than --max-regression percent. The ratio — both paths measured in
// the same process on the same machine — is what the nightly job gates on;
// absolute calls/sec vary with hardware and are reported but never gated.
//
// Usage:
//   bench_whatif [--out PATH] [--baseline PATH] [--max-regression PCT]
//                [--quick]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "optimizer/what_if.h"
#include "tuner/candidate_gen.h"
#include "workload/generators.h"

namespace bati {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic random configurations over the candidate universe as
/// sorted position sets, the empty configuration first (same shape the
/// identity tests use).
std::vector<std::vector<int>> SamplePositionSets(int universe, int count,
                                                 int max_size,
                                                 uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<int>> sets;
  sets.push_back({});
  if (universe == 0) return sets;
  std::uniform_int_distribution<int> size_dist(1, max_size);
  std::uniform_int_distribution<int> pick(0, universe - 1);
  for (int i = 0; i < count; ++i) {
    std::vector<int> chosen;
    const int want = size_dist(rng);
    for (int k = 0; k < want; ++k) chosen.push_back(pick(rng));
    std::sort(chosen.begin(), chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    sets.push_back(std::move(chosen));
  }
  return sets;
}

struct SingleThreadResult {
  double fast_calls_per_sec = 0.0;
  double ref_calls_per_sec = 0.0;
  double speedup = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double memo_hit_rate = 0.0;
  int64_t fast_calls = 0;
  int64_t ref_calls = 0;
};

struct WorkloadResult {
  std::string name;
  SingleThreadResult single;
};

/// Runs `body(call_index)` repeatedly until at least `min_seconds` elapsed
/// and at least one full sweep completed; returns calls/sec and fills
/// `latencies_us` (one entry per call) when non-null.
template <typename Body>
double MeasureCalls(int calls_per_sweep, double min_seconds, Body&& body,
                    std::vector<double>* latencies_us, int64_t* total_calls) {
  int64_t calls = 0;
  const double start = NowSeconds();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < calls_per_sweep; ++i) {
      if (latencies_us != nullptr) {
        const double t0 = NowSeconds();
        body(i);
        latencies_us->push_back((NowSeconds() - t0) * 1e6);
      } else {
        body(i);
      }
      ++calls;
    }
    elapsed = NowSeconds() - start;
  } while (elapsed < min_seconds);
  *total_calls = calls;
  return static_cast<double>(calls) / elapsed;
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  const size_t k = static_cast<size_t>(
      p * static_cast<double>(values->size() - 1) + 0.5);
  std::nth_element(values->begin(),
                   values->begin() + static_cast<ptrdiff_t>(k), values->end());
  return (*values)[k];
}

SingleThreadResult BenchSingleThread(const Workload& w,
                                     const CandidateSet& candidates,
                                     bool quick) {
  SingleThreadResult r;
  WhatIfOptimizer fast(w.database);
  WhatIfOptimizer reference(w.database, CostModelParams{},
                            WhatIfOptimizerOptions{/*use_fast_path=*/false});
  const auto position_sets =
      SamplePositionSets(candidates.size(), quick ? 8 : 24, 6, 0xBE7C);
  std::vector<std::vector<Index>> configs;
  for (const auto& set : position_sets) {
    std::vector<Index> config;
    for (int pos : set) {
      config.push_back(candidates.indexes[static_cast<size_t>(pos)]);
    }
    configs.push_back(std::move(config));
  }

  // One (query, config) sweep = the workload's what-if call mix.
  struct Call {
    const Query* query;
    const std::vector<Index>* config;
  };
  std::vector<Call> calls;
  for (const Query& q : w.queries) {
    for (const auto& c : configs) calls.push_back(Call{&q, &c});
  }
  const int sweep = static_cast<int>(calls.size());

  // Warm-up: populate the skeleton memo and the arena, then drop the warm-up
  // hits so the reported memo rate reflects the measured calls only.
  for (const Call& c : calls) fast.Cost(*c.query, *c.config);
  const PlanMemoStats warm = fast.memo_stats();

  // Best-of-N repetitions: the gate compares speedup ratios against a
  // committed baseline, and on a shared machine a single measurement leg
  // carries 10-15% scheduler noise — enough to trip a 10% gate spuriously.
  // The best repetition tracks machine capability, which is stable.
  const double min_s = quick ? 0.2 : 1.0;
  const int reps = quick ? 1 : 3;
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<size_t>(sweep) * 4);
  for (int rep = 0; rep < reps; ++rep) {
    int64_t rep_calls = 0;
    const double rate = MeasureCalls(
        sweep, min_s,
        [&](int i) { fast.Cost(*calls[static_cast<size_t>(i)].query,
                               *calls[static_cast<size_t>(i)].config); },
        &latencies_us, &rep_calls);
    r.fast_calls_per_sec = std::max(r.fast_calls_per_sec, rate);
    r.fast_calls += rep_calls;
  }
  r.p50_us = Percentile(&latencies_us, 0.50);
  r.p95_us = Percentile(&latencies_us, 0.95);

  const PlanMemoStats after = fast.memo_stats();
  const int64_t hits = after.hits - warm.hits;
  const int64_t misses = after.misses - warm.misses;
  r.memo_hit_rate = hits + misses == 0
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(hits + misses);

  for (int rep = 0; rep < reps; ++rep) {
    int64_t rep_calls = 0;
    const double rate = MeasureCalls(
        sweep, min_s,
        [&](int i) { reference.Cost(*calls[static_cast<size_t>(i)].query,
                                    *calls[static_cast<size_t>(i)].config); },
        nullptr, &rep_calls);
    r.ref_calls_per_sec = std::max(r.ref_calls_per_sec, rate);
    r.ref_calls += rep_calls;
  }
  r.speedup = r.ref_calls_per_sec == 0.0
                  ? 0.0
                  : r.fast_calls_per_sec / r.ref_calls_per_sec;
  return r;
}

std::string ToJson(const std::vector<WorkloadResult>& results) {
  std::string out = "{\n  \"suite\": \"whatif_hot_path\",\n";
  out += "  \"gate\": \"speedup\",\n";
  char buf[512];
  // Absolute calls/sec are only comparable on the same machine; record its
  // cores so trajectories across machines can be read correctly (the
  // regression gate uses the machine-independent fast/reference speedup
  // ratio only).
  std::snprintf(buf, sizeof(buf), "  \"hardware_concurrency\": %u,\n",
                std::thread::hardware_concurrency());
  out += buf;
  out += "  \"workloads\": {\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    std::snprintf(
        buf, sizeof(buf),
        "    \"%s\": {\n"
        "      \"single_thread\": {\n"
        "        \"fast_calls_per_sec\": %.1f,\n"
        "        \"ref_calls_per_sec\": %.1f,\n"
        "        \"speedup\": %.3f,\n"
        "        \"p50_us\": %.3f,\n"
        "        \"p95_us\": %.3f,\n"
        "        \"memo_hit_rate\": %.4f,\n"
        "        \"fast_calls\": %lld,\n"
        "        \"ref_calls\": %lld\n"
        "      }",
        r.name.c_str(), r.single.fast_calls_per_sec,
        r.single.ref_calls_per_sec, r.single.speedup, r.single.p50_us,
        r.single.p95_us, r.single.memo_hit_rate,
        static_cast<long long>(r.single.fast_calls),
        static_cast<long long>(r.single.ref_calls));
    out += buf;
    out += "\n    }";
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  }\n}\n";
  return out;
}

/// Pulls `"speedup": <number>` out of the baseline's per-workload object.
/// The format is our own ToJson() above, so a scan is enough: find the
/// workload key, then the first "speedup" after it.
bool BaselineSpeedup(const std::string& json, const std::string& workload,
                     double* speedup) {
  const size_t wpos = json.find("\"" + workload + "\"");
  if (wpos == std::string::npos) return false;
  const size_t spos = json.find("\"speedup\":", wpos);
  if (spos == std::string::npos) return false;
  *speedup = std::strtod(json.c_str() + spos + 10, nullptr);
  return true;
}

int Run(int argc, char** argv) {
  std::string out_path = "BENCH_whatif.json";
  std::string baseline_path;
  double max_regression = 10.0;
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
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_whatif [--out PATH] [--baseline PATH] "
                   "[--max-regression PCT] [--quick]\n");
      return 2;
    }
  }

  const char* workloads[] = {"toy", "tpch", "tpcds", "real-d-bench"};
  std::vector<WorkloadResult> results;
  for (const char* name : workloads) {
    std::fprintf(stderr, "[bench_whatif] %s: generating workload...\n", name);
    const Workload w = MakeWorkloadByName(name);
    if (w.database == nullptr) {
      std::fprintf(stderr, "[bench_whatif] unknown workload %s\n", name);
      return 2;
    }
    const CandidateSet candidates = GenerateCandidates(w);
    WorkloadResult r;
    r.name = name;
    r.single = BenchSingleThread(w, candidates, quick);
    std::fprintf(stderr,
                 "[bench_whatif] %s: fast %.0f calls/s, ref %.0f calls/s, "
                 "speedup %.2fx, p50 %.1fus, p95 %.1fus, memo %.1f%%\n",
                 name, r.single.fast_calls_per_sec, r.single.ref_calls_per_sec,
                 r.single.speedup, r.single.p50_us, r.single.p95_us,
                 100.0 * r.single.memo_hit_rate);
    results.push_back(std::move(r));
  }

  const std::string json = ToJson(results);
  Status st = AtomicWriteFile(out_path, json);
  if (!st.ok()) {
    std::fprintf(stderr, "[bench_whatif] write %s: %s\n", out_path.c_str(),
                 st.ToString().c_str());
    return 2;
  }
  std::fprintf(stderr, "[bench_whatif] wrote %s\n", out_path.c_str());

  if (baseline_path.empty()) return 0;
  StatusOr<std::string> baseline = ReadFileToString(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "[bench_whatif] baseline %s: %s\n",
                 baseline_path.c_str(),
                 baseline.status().ToString().c_str());
    return 2;
  }
  int failures = 0;
  for (const WorkloadResult& r : results) {
    double base = 0.0;
    if (!BaselineSpeedup(*baseline, r.name, &base)) {
      std::fprintf(stderr, "[bench_whatif] %s: no baseline speedup, skipped\n",
                   r.name.c_str());
      continue;
    }
    const double floor = base * (1.0 - max_regression / 100.0);
    if (r.single.speedup < floor) {
      std::fprintf(stderr,
                   "[bench_whatif] REGRESSION %s: speedup %.3f < %.3f "
                   "(baseline %.3f - %.0f%%)\n",
                   r.name.c_str(), r.single.speedup, floor, base,
                   max_regression);
      ++failures;
    } else {
      std::fprintf(stderr, "[bench_whatif] %s: speedup %.3f vs baseline %.3f"
                   " ok\n", r.name.c_str(), r.single.speedup, base);
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bati

int main(int argc, char** argv) { return bati::Run(argc, argv); }
