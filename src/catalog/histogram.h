#ifndef BATI_CATALOG_HISTOGRAM_H_
#define BATI_CATALOG_HISTOGRAM_H_

#include <vector>

#include "common/status.h"

namespace bati {

/// Equi-height-style histogram over a column's value domain: `bounds` has
/// B+1 ascending edges and `fractions` has B bucket row-fractions summing to
/// ~1. Real optimizers estimate selectivities from histograms rather than
/// uniform domains; attaching one to a ColumnStats refines the simulated
/// what-if optimizer's cardinality model (skew-aware selectivity), which in
/// turn changes which index configurations look good — a knob for studying
/// tuner sensitivity to estimation quality.
class Histogram {
 public:
  Histogram() = default;

  /// Builds from explicit bucket edges and per-bucket fractions.
  /// Requires ascending bounds, fractions.size()+1 == bounds.size(), and
  /// non-negative fractions (they are normalized to sum to 1).
  static StatusOr<Histogram> Make(std::vector<double> bounds,
                                  std::vector<double> fractions);

  /// Zipf-skewed histogram over [min, max]: earlier buckets hold a
  /// 1/rank^exponent share of the rows (heavier head for larger exponents).
  static Histogram Zipf(double min_value, double max_value, int buckets,
                        double exponent);

  bool empty() const { return fractions_.empty(); }
  int num_buckets() const { return static_cast<int>(fractions_.size()); }
  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<double>& fractions() const { return fractions_; }

  double min_value() const { return bounds_.empty() ? 0.0 : bounds_.front(); }
  double max_value() const { return bounds_.empty() ? 0.0 : bounds_.back(); }

  /// Fraction of rows with value < v (linear interpolation within buckets).
  double CumulativeBelow(double v) const;

  /// Fraction of rows in [lo, hi]; 0 for empty/inverted ranges outside the
  /// domain.
  double RangeFraction(double lo, double hi) const;

  /// Selectivity of an equality predicate at v, assuming `ndv` distinct
  /// values spread across buckets proportionally to bucket width: the
  /// bucket's row fraction divided by the distinct values it holds.
  double EqualityFraction(double v, double ndv) const;

 private:
  std::vector<double> bounds_;
  std::vector<double> fractions_;
  /// Cumulative fractions; cumulative_[i] = sum of fractions_[0..i-1].
  std::vector<double> cumulative_;

  void BuildCumulative();
};

}  // namespace bati

#endif  // BATI_CATALOG_HISTOGRAM_H_
