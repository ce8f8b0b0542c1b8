#include "whatif/derived_cost_index.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/macros.h"

namespace bati {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

DerivedCostIndex::DerivedCostIndex(int num_queries, int num_candidates) {
  BATI_CHECK(num_queries >= 0 && num_candidates >= 0);
  queries_.resize(static_cast<size_t>(num_queries));
  for (QueryIndex& qi : queries_) {
    qi.postings.resize(static_cast<size_t>(num_candidates));
    qi.singleton.assign(static_cast<size_t>(num_candidates),
                        std::numeric_limits<double>::quiet_NaN());
  }
}

const double* DerivedCostIndex::Find(int query_id,
                                     const Config& config) const {
  const QueryIndex& qi = at(query_id);
  auto it = qi.exact.find(config);
  return it == qi.exact.end() ? nullptr : &it->second;
}

void DerivedCostIndex::Add(int query_id, const Config& config,
                           const std::vector<size_t>& positions,
                           double cost) {
  QueryIndex& qi = queries_[static_cast<size_t>(query_id)];
  auto [it, inserted] = qi.exact.emplace(config, cost);
  BATI_CHECK(inserted && "cell inserted twice");
  const int32_t id = static_cast<int32_t>(qi.entries.size());
  qi.entries.push_back(Entry{config, cost});
  ++entries_;

  // Keep the global ordering and every touched posting list cost-ascending.
  auto cost_less = [&qi](int32_t a, double c) {
    return qi.entries[static_cast<size_t>(a)].cost < c;
  };
  qi.by_cost.insert(
      std::lower_bound(qi.by_cost.begin(), qi.by_cost.end(), cost, cost_less),
      id);
  for (size_t pos : positions) {
    std::vector<int32_t>& list = qi.postings[pos];
    list.insert(std::lower_bound(list.begin(), list.end(), cost, cost_less),
                id);
  }

  if (cost < qi.best_cost) {
    qi.best_cost = cost;
    qi.best_entry = id;
  }
  if (positions.size() == 1) {
    qi.singleton[positions.front()] = cost;
  }
}

double DerivedCostIndex::SubsetMin(int query_id, const Config& config,
                                   double base) const {
  const int64_t lookup_no = derived_lookups_++;
  // Deterministic 1-in-64 sampling keyed off the lookup counter:
  // this is the hottest path in the engine (rollout-heavy tuners issue tens
  // of derived lookups per counted call), so both the wall clock and the
  // histogram stay out of 63/64 of the lookups, and whether a lookup is
  // observed never depends on prior observations.
  const bool sampled = (lookup_no & 63) == 0;
  const bool timed = sampled && obs_lookup_wall_us_ != nullptr;
  const double t0 = timed ? NowSeconds() : 0.0;
  const QueryIndex& qi = at(query_id);
  const int64_t total = static_cast<int64_t>(qi.by_cost.size());
  double best = base;
  int64_t scanned = 0;
  // Monotone bound: if even the cheapest cached cell is a subset of C, no
  // other entry can beat it.
  if (qi.best_entry >= 0 && qi.best_cost < base &&
      qi.entries[static_cast<size_t>(qi.best_entry)].config.IsSubsetOf(
          config)) {
    scanned = 1;
    best = qi.best_cost;
  } else {
    for (int32_t id : qi.by_cost) {
      const Entry& e = qi.entries[static_cast<size_t>(id)];
      // Cost-ascending order: once entry costs reach the running best there
      // is nothing left to gain.
      if (e.cost >= best) break;
      ++scanned;
      if (e.config.IsSubsetOf(config)) {
        best = e.cost;
        break;  // first eligible entry in ascending order is the minimum
      }
    }
  }
  scanned_entries_ += scanned;
  pruned_entries_ += total - scanned;
  if (sampled && obs_scan_depth_ != nullptr) {
    obs_scan_depth_->Record(static_cast<double>(scanned));
  }
  if (timed) obs_lookup_wall_us_->Record((NowSeconds() - t0) * 1e6);
  return best;
}

double DerivedCostIndex::SubsetMinWithAdd(int query_id, const Config& config,
                                          size_t pos, double current) const {
  const int64_t lookup_no = delta_lookups_++;
  const QueryIndex& qi = at(query_id);
  const std::vector<int32_t>& list = qi.postings[pos];
  double best = current;
  int64_t scanned = 0;
  for (int32_t id : list) {
    const Entry& e = qi.entries[static_cast<size_t>(id)];
    if (e.cost >= best) break;  // cost-ascending posting list
    ++scanned;
    if (e.config.IsSubsetOfWith(config, pos)) {
      best = e.cost;
      break;
    }
  }
  scanned_entries_ += scanned;
  pruned_entries_ += static_cast<int64_t>(list.size()) - scanned;
  // Same 1-in-64 sampling as SubsetMin, keyed off the delta counter.
  if (obs_delta_scan_depth_ != nullptr && (lookup_no & 63) == 0) {
    obs_delta_scan_depth_->Record(static_cast<double>(scanned));
  }
  return best;
}

double DerivedCostIndex::DeltaAdd(int query_id, const Config& config,
                                  size_t pos, double base) const {
  double current = SubsetMin(query_id, config, base);
  return SubsetMinWithAdd(query_id, config, pos, current) - current;
}

double DerivedCostIndex::SingletonMin(int query_id, const Config& config,
                                      double base) const {
  const QueryIndex& qi = at(query_id);
  double best = base;
  for (size_t pos : config.ToIndices()) {
    double c = qi.singleton[pos];
    if (!std::isnan(c) && c < best) best = c;
  }
  return best;
}

double DerivedCostIndex::SupersetMaxLowerBound(int query_id,
                                               const Config& config,
                                               double floor) const {
  ++lower_bound_lookups_;
  const QueryIndex& qi = at(query_id);
  const size_t members = config.count();
  int64_t scanned = 0;
  double bound = floor;
  // Cost-descending: the first superset found carries the maximum cost.
  for (auto it = qi.by_cost.rbegin(); it != qi.by_cost.rend(); ++it) {
    const Entry& e = qi.entries[static_cast<size_t>(*it)];
    ++scanned;
    if (e.config.count() < members) continue;  // cannot contain config
    if (config.IsSubsetOf(e.config)) {
      bound = std::max(bound, e.cost);
      break;
    }
  }
  scanned_entries_ += scanned;
  pruned_entries_ += static_cast<int64_t>(qi.by_cost.size()) - scanned;
  return bound;
}

double DerivedCostIndex::AdditiveLowerBound(int query_id, const Config& config,
                                            double base, double floor) const {
  ++lower_bound_lookups_;
  const QueryIndex& qi = at(query_id);
  double bound = base;
  for (size_t pos : config.ToIndices()) {
    const double c = qi.singleton[pos];
    if (std::isnan(c)) return floor;  // unknown member: no usable bound
    bound -= std::max(0.0, base - c);
  }
  return std::max(bound, floor);
}

int64_t DerivedCostIndex::entry_count(int query_id) const {
  return static_cast<int64_t>(at(query_id).entries.size());
}

int64_t DerivedCostIndex::total_entries() const { return entries_; }

void DerivedCostIndex::AccumulateStats(CostEngineStats* stats) const {
  stats->derived_lookups += derived_lookups_;
  stats->delta_lookups += delta_lookups_;
  stats->index_entries += entries_;
  stats->index_scanned_entries += scanned_entries_;
  stats->index_pruned_entries += pruned_entries_;
  stats->lower_bound_lookups += lower_bound_lookups_;
}

void DerivedCostIndex::SetObservability(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    obs_scan_depth_ = nullptr;
    obs_delta_scan_depth_ = nullptr;
    obs_lookup_wall_us_ = nullptr;
    return;
  }
  obs_scan_depth_ = metrics->GetHistogram("index.scan_depth",
                                          ExponentialBuckets(1.0, 2.0, 20));
  obs_delta_scan_depth_ = metrics->GetHistogram(
      "index.delta_scan_depth", ExponentialBuckets(1.0, 2.0, 20));
  obs_lookup_wall_us_ = metrics->GetHistogram(
      "index.lookup_wall_us", ExponentialBuckets(0.125, 2.0, 24));
}

}  // namespace bati
