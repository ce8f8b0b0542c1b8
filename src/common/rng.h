#ifndef BATI_COMMON_RNG_H_
#define BATI_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace bati {

/// Deterministic, seedable pseudo-random number generator
/// (xoshiro256** seeded through SplitMix64). All randomized components of the
/// library (MCTS, rollout, bandits, DQN, workload synthesis) draw from an Rng
/// owned by the caller so every experiment is reproducible from a seed, as the
/// paper's evaluation protocol requires (5 seeds, mean and standard deviation).
class Rng {
 public:
  /// Creates a generator from a 64-bit seed. Equal seeds yield equal streams.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi], inclusive on both ends. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal variate (Box-Muller).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Samples an element index from non-negative weights, proportional to
  /// weight. If all weights are zero, samples uniformly. Requires non-empty.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    if (v.empty()) return;
    for (size_t i = v.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i)));
      using std::swap;
      swap(v[i], v[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace bati

#endif  // BATI_COMMON_RNG_H_
