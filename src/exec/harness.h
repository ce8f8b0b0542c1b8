#ifndef BATI_EXEC_HARNESS_H_
#define BATI_EXEC_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "storage/index.h"

namespace bati::exec {

/// Options for one rank-correlation run: execute a set of index
/// configurations end to end and compare the what-if cost ordering against
/// measured wall-clock.
struct CorrelationOptions {
  /// Configurations actually executed (the empty configuration is always
  /// one of them).
  int num_configs = 8;
  /// Random configurations sampled (and what-if costed) before selection.
  int sample_configs = 64;
  /// Max indexes per sampled configuration.
  int max_config_size = 4;
  /// Timed repetitions per configuration; the minimum is kept.
  int repetitions = 2;
  /// Full measurement passes over all configurations; per-pass correlations
  /// expose run-to-run reproducibility.
  int passes = 2;
  uint64_t seed = 0xC0FFEE;
};

/// One executed configuration.
struct ConfigMeasurement {
  /// Positions into the candidate universe (empty = no indexes).
  std::vector<int> positions;
  double whatif_cost = 0.0;
  /// Measured seconds per pass (sum of per-query best-of-repetitions).
  std::vector<double> seconds;
  /// Sum of per-query minima across every pass and repetition — the most
  /// noise-resistant single number for this configuration.
  double seconds_best = 0.0;
  /// Per-query minimum seconds across every pass and repetition
  /// (diagnostics: which queries drive a configuration's measured time).
  std::vector<double> per_query_seconds;
};

struct CorrelationReport {
  int num_configs = 0;
  /// Spearman rank correlation between what-if cost and measured seconds,
  /// one value per pass, plus the minimum across passes (the
  /// reproducibility signal).
  std::vector<double> spearman_per_pass;
  double spearman_min = 0.0;
  /// Spearman over ConfigMeasurement::seconds_best — per-query minima
  /// pooled across every pass and repetition. The most stable number and
  /// the one the gates use.
  double spearman_combined = 0.0;
  /// Kendall tau-b over seconds_best.
  double kendall = 0.0;
  /// True once every configuration agreed with the scalar reference
  /// executor on every query (RunCorrelation dies on a disagreement).
  bool validated = false;
  int64_t store_rows = 0;
  std::vector<ConfigMeasurement> configs;
};

/// Samples configurations over `universe` — random position sets plus every
/// prefix of a greedy forward selection, the configurations index tuning
/// actually visits, which anchor the cheap end of the cost range — and
/// executes under `engine` the `num_configs` whose what-if costs spread
/// most evenly across the sampled range. Correlates what-if cost ordering
/// with measured time, then cross-checks every configuration's results
/// against each other and against the scalar reference executor (exact
/// row counts + checksums). Dies (CHECK) on any disagreement — a wrong
/// executor must never produce a gated number.
CorrelationReport RunCorrelation(ExecutionEngine* engine,
                                 const std::vector<Index>& universe,
                                 const CorrelationOptions& options);

}  // namespace bati::exec

#endif  // BATI_EXEC_HARNESS_H_
