#ifndef BATI_COMMON_STATS_H_
#define BATI_COMMON_STATS_H_

#include <cstddef>

namespace bati {

/// Streaming mean / standard-deviation accumulator (Welford). Used by the
/// experiment harness to aggregate metrics across RNG seeds, matching the
/// paper's protocol of reporting mean with error bars over five seeds.
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }

  /// Sample standard deviation (n-1 denominator); 0 for n < 2.
  double stddev() const;

  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace bati

#endif  // BATI_COMMON_STATS_H_
