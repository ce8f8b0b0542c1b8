#include "exec/harness.h"

#include <algorithm>
#include <limits>
#include <random>
#include <utility>

#include "common/macros.h"
#include "exec/correlation.h"

namespace bati::exec {

namespace {

/// Deterministic random position sets over the universe, the empty
/// configuration first (the same shape the what-if identity tests and
/// bench_whatif use).
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

std::vector<Index> ToConfig(const std::vector<Index>& universe,
                            const std::vector<int>& positions) {
  std::vector<Index> config;
  config.reserve(positions.size());
  for (int pos : positions) {
    config.push_back(universe[static_cast<size_t>(pos)]);
  }
  return config;
}

}  // namespace

CorrelationReport RunCorrelation(ExecutionEngine* engine,
                                 const std::vector<Index>& universe,
                                 const CorrelationOptions& options) {
  BATI_CHECK(engine != nullptr);
  BATI_CHECK(options.num_configs >= 2);
  BATI_CHECK(options.passes >= 1);

  // ---- Sample candidate configurations, cost them all hypothetically. ----
  std::vector<std::vector<int>> sampled = SamplePositionSets(
      static_cast<int>(universe.size()),
      std::max(options.sample_configs, options.num_configs),
      options.max_config_size, options.seed);
  struct Sampled {
    std::vector<int> positions;
    double cost;
  };
  if (!universe.empty()) {
    // Greedy forward selection over the whole universe; every prefix of
    // the trajectory joins the pool.
    std::vector<int> current;
    std::vector<char> used(universe.size(), 0);
    double current_cost = engine->WhatIfWorkloadCost({});
    for (int step = 0; step < options.max_config_size; ++step) {
      int best_pos = -1;
      double best_cost = current_cost;
      for (size_t pos = 0; pos < universe.size(); ++pos) {
        if (used[pos]) continue;
        std::vector<int> extended = current;
        extended.push_back(static_cast<int>(pos));
        const double cost =
            engine->WhatIfWorkloadCost(ToConfig(universe, extended));
        if (cost < best_cost) {
          best_cost = cost;
          best_pos = static_cast<int>(pos);
        }
      }
      if (best_pos < 0) break;  // no candidate improves: trajectory done
      used[static_cast<size_t>(best_pos)] = 1;
      current.push_back(best_pos);
      std::sort(current.begin(), current.end());
      current_cost = best_cost;
      sampled.push_back(current);
    }
  }

  std::vector<Sampled> costed;
  costed.reserve(sampled.size());
  for (std::vector<int>& positions : sampled) {
    const double cost =
        engine->WhatIfWorkloadCost(ToConfig(universe, positions));
    costed.push_back(Sampled{std::move(positions), cost});
  }
  // Dedupe by cost: identical costs are almost surely identical effective
  // configurations and add no rank information.
  std::sort(costed.begin(), costed.end(),
            [](const Sampled& a, const Sampled& b) { return a.cost < b.cost; });
  costed.erase(std::unique(costed.begin(), costed.end(),
                           [](const Sampled& a, const Sampled& b) {
                             return a.cost == b.cost;
                           }),
               costed.end());

  // ---- Select the executed subset. ----
  std::vector<Sampled> chosen;
  const int want = std::min<int>(options.num_configs,
                                 static_cast<int>(costed.size()));
  if (static_cast<int>(costed.size()) > want) {
    // Pick the configs whose costs are nearest to evenly spaced targets
    // over [cheapest, dearest]: the correlation then spans the whole cost
    // range at roughly uniform spacing instead of clustering wherever
    // sampling happened to land (random samples crowd the expensive end;
    // the trajectory populates the cheap end).
    const double lo = costed.front().cost;
    const double hi = costed.back().cost;
    std::vector<char> taken(costed.size(), 0);
    for (int i = 0; i < want; ++i) {
      const double target = lo + (hi - lo) * i / (want - 1);
      size_t best = costed.size();
      double best_dist = std::numeric_limits<double>::infinity();
      for (size_t j = 0; j < costed.size(); ++j) {
        if (taken[j]) continue;
        const double dist = std::abs(costed[j].cost - target);
        if (dist < best_dist) {
          best_dist = dist;
          best = j;
        }
      }
      taken[best] = 1;
    }
    for (size_t j = 0; j < costed.size(); ++j) {
      if (taken[j]) chosen.push_back(costed[j]);
    }
  } else {
    chosen = std::move(costed);  // no more distinct costs than wanted
  }

  CorrelationReport report;
  report.num_configs = static_cast<int>(chosen.size());
  report.store_rows = engine->store().total_rows();
  for (const Sampled& s : chosen) {
    ConfigMeasurement m;
    m.positions = s.positions;
    m.whatif_cost = s.cost;
    report.configs.push_back(std::move(m));
  }

  // ---- Execute: `passes` full sweeps, correlation per pass.
  // Repetitions are interleaved across configurations (sweep all configs,
  // then sweep again) so one configuration's repetitions land far apart in
  // time: a transient load burst inflates at most one repetition of each
  // query, and the per-query minimum discards it. Back-to-back repetitions
  // would all sit inside the same burst.
  const size_t nc = report.configs.size();
  std::vector<std::vector<ExecResult>> first_results(nc);
  std::vector<std::vector<double>> pq_global(nc);
  for (int pass = 0; pass < options.passes; ++pass) {
    std::vector<std::vector<double>> pq_min(nc);
    for (int rep = 0; rep < options.repetitions; ++rep) {
      for (size_t ci = 0; ci < nc; ++ci) {
        ConfigMeasurement& m = report.configs[ci];
        ExecutionEngine::RunResult run =
            engine->ExecuteWorkload(ToConfig(universe, m.positions), 1);
        if (pass == 0 && rep == 0) {
          first_results[ci] = std::move(run.per_query);
        } else {  // determinism across repetitions and passes
          for (size_t qi = 0; qi < run.per_query.size(); ++qi) {
            BATI_CHECK(run.per_query[qi] == first_results[ci][qi]);
          }
        }
        if (pq_min[ci].empty()) {
          pq_min[ci] = std::move(run.per_query_seconds);
        } else {
          for (size_t qi = 0; qi < pq_min[ci].size(); ++qi) {
            pq_min[ci][qi] =
                std::min(pq_min[ci][qi], run.per_query_seconds[qi]);
          }
        }
      }
    }
    std::vector<double> costs;
    std::vector<double> seconds;
    for (size_t ci = 0; ci < nc; ++ci) {
      ConfigMeasurement& m = report.configs[ci];
      double total = 0.0;
      for (double s : pq_min[ci]) total += s;
      m.seconds.push_back(total);
      costs.push_back(m.whatif_cost);
      seconds.push_back(total);
      if (pq_global[ci].empty()) {
        pq_global[ci] = std::move(pq_min[ci]);
      } else {
        for (size_t qi = 0; qi < pq_global[ci].size(); ++qi) {
          pq_global[ci][qi] = std::min(pq_global[ci][qi], pq_min[ci][qi]);
        }
      }
    }
    report.spearman_per_pass.push_back(SpearmanRho(costs, seconds));
  }
  report.spearman_min = *std::min_element(report.spearman_per_pass.begin(),
                                          report.spearman_per_pass.end());
  {
    std::vector<double> costs;
    std::vector<double> best;
    for (size_t ci = 0; ci < nc; ++ci) {
      ConfigMeasurement& m = report.configs[ci];
      m.per_query_seconds = std::move(pq_global[ci]);
      m.seconds_best = 0.0;
      for (double s : m.per_query_seconds) m.seconds_best += s;
      costs.push_back(m.whatif_cost);
      best.push_back(m.seconds_best);
    }
    report.spearman_combined = SpearmanRho(costs, best);
    report.kendall = KendallTau(costs, best);
  }

  // ---- Validation: every configuration must compute the same logical
  // result, and that result must match the scalar reference executor. ----
  const int nq = static_cast<int>(first_results.front().size());
  for (int qi = 0; qi < nq; ++qi) {
    const ExecResult reference = engine->ExecuteReference(qi);
    for (size_t ci = 0; ci < first_results.size(); ++ci) {
      BATI_CHECK(first_results[ci][static_cast<size_t>(qi)] == reference);
    }
  }
  report.validated = true;
  return report;
}

}  // namespace bati::exec
