#include "catalog/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace bati {

StatusOr<Histogram> Histogram::Make(std::vector<double> bounds,
                                    std::vector<double> fractions) {
  if (bounds.size() < 2 || fractions.size() + 1 != bounds.size()) {
    return Status::InvalidArgument(
        "histogram needs >= 2 bounds and |fractions| == |bounds| - 1");
  }
  for (size_t i = 1; i < bounds.size(); ++i) {
    if (!(bounds[i] > bounds[i - 1])) {
      return Status::InvalidArgument("histogram bounds must be ascending");
    }
  }
  double total = 0.0;
  for (double f : fractions) {
    if (f < 0.0) {
      return Status::InvalidArgument("histogram fractions must be >= 0");
    }
    total += f;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("histogram fractions sum to zero");
  }
  for (double& f : fractions) f /= total;
  Histogram h;
  h.bounds_ = std::move(bounds);
  h.fractions_ = std::move(fractions);
  h.BuildCumulative();
  return h;
}

Histogram Histogram::Zipf(double min_value, double max_value, int buckets,
                          double exponent) {
  BATI_CHECK(buckets >= 1 && max_value > min_value);
  std::vector<double> bounds(static_cast<size_t>(buckets) + 1);
  for (int i = 0; i <= buckets; ++i) {
    bounds[static_cast<size_t>(i)] =
        min_value + (max_value - min_value) * i / buckets;
  }
  std::vector<double> fractions(static_cast<size_t>(buckets));
  for (int i = 0; i < buckets; ++i) {
    fractions[static_cast<size_t>(i)] =
        1.0 / std::pow(static_cast<double>(i + 1), exponent);
  }
  auto h = Make(std::move(bounds), std::move(fractions));
  BATI_CHECK(h.ok());
  return std::move(h.value());
}

void Histogram::BuildCumulative() {
  cumulative_.assign(fractions_.size() + 1, 0.0);
  for (size_t i = 0; i < fractions_.size(); ++i) {
    cumulative_[i + 1] = cumulative_[i] + fractions_[i];
  }
}

double Histogram::CumulativeBelow(double v) const {
  if (empty()) return 0.0;
  if (v <= bounds_.front()) return 0.0;
  if (v >= bounds_.back()) return 1.0;
  // Binary search for the bucket containing v.
  auto it = std::upper_bound(bounds_.begin(), bounds_.end(), v);
  size_t bucket = static_cast<size_t>(it - bounds_.begin()) - 1;
  bucket = std::min(bucket, fractions_.size() - 1);
  double lo = bounds_[bucket];
  double hi = bounds_[bucket + 1];
  double within = (v - lo) / std::max(1e-12, hi - lo);
  return cumulative_[bucket] + fractions_[bucket] * within;
}

double Histogram::RangeFraction(double lo, double hi) const {
  if (empty() || hi < lo) return 0.0;
  return std::max(0.0, CumulativeBelow(hi) - CumulativeBelow(lo));
}

double Histogram::EqualityFraction(double v, double ndv) const {
  if (empty()) return 0.0;
  if (v < bounds_.front() || v > bounds_.back()) return 0.0;
  auto it = std::upper_bound(bounds_.begin(), bounds_.end(), v);
  size_t bucket = it == bounds_.begin()
                      ? 0
                      : static_cast<size_t>(it - bounds_.begin()) - 1;
  bucket = std::min(bucket, fractions_.size() - 1);
  // Distinct values are assumed spread across buckets by width share.
  double domain = bounds_.back() - bounds_.front();
  double width = bounds_[bucket + 1] - bounds_[bucket];
  double ndv_in_bucket =
      std::max(1.0, ndv * width / std::max(1e-12, domain));
  return fractions_[bucket] / ndv_in_bucket;
}

}  // namespace bati
