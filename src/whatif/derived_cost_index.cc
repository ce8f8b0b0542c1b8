#include "whatif/derived_cost_index.h"

#include <algorithm>
#include <bit>
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

uint64_t SignatureBit(size_t pos) {
  return 1ULL << (pos % DynamicBitset::kBitsPerWord);
}

/// Orders a configuration's cells by query id.
bool QueryBefore(const std::pair<int32_t, double>& cell, int query_id) {
  return cell.first < query_id;
}

}  // namespace

DerivedCostIndex::DerivedCostIndex(int num_queries, int num_candidates) {
  BATI_CHECK(num_queries >= 0 && num_candidates >= 0);
  const size_t words =
      (static_cast<size_t>(num_candidates) + DynamicBitset::kBitsPerWord - 1) /
      DynamicBitset::kBitsPerWord;
  queries_.resize(static_cast<size_t>(num_queries));
  for (QueryIndex& qi : queries_) {
    qi.present.assign(words, 0);
    qi.rank_base.assign(words, 0);
  }
}

const DerivedCostIndex::Cells* DerivedCostIndex::Resolve(
    const Config& config) const {
  if (config != memo_config_) {
    auto it = configs_.find(config);
    memo_cells_ = it == configs_.end() ? nullptr : &it->second;
    memo_config_ = config;
  }
  return memo_cells_;
}

std::optional<double> DerivedCostIndex::Find(int query_id,
                                             const Config& config) const {
  const Cells* cells = Resolve(config);
  if (cells == nullptr) return std::nullopt;
  auto it =
      std::lower_bound(cells->begin(), cells->end(), query_id, QueryBefore);
  if (it == cells->end() || it->first != query_id) return std::nullopt;
  return it->second;
}

size_t DerivedCostIndex::QueryIndex::Rank(size_t pos) const {
  const size_t w = pos / DynamicBitset::kBitsPerWord;
  return rank_base[w] + static_cast<size_t>(std::popcount(
                            present[w] & (SignatureBit(pos) - 1)));
}

const DerivedCostIndex::Posting* DerivedCostIndex::FindPosting(
    const QueryIndex& qi, size_t pos) {
  if ((qi.present[pos / DynamicBitset::kBitsPerWord] & SignatureBit(pos)) ==
      0) {
    return nullptr;
  }
  return &qi.postings[qi.Rank(pos)];
}

DerivedCostIndex::Posting& DerivedCostIndex::PostingFor(QueryIndex& qi,
                                                        size_t pos) {
  const size_t w = pos / DynamicBitset::kBitsPerWord;
  const size_t rank = qi.Rank(pos);
  if ((qi.present[w] & SignatureBit(pos)) == 0) {
    qi.present[w] |= SignatureBit(pos);
    for (size_t i = w + 1; i < qi.rank_base.size(); ++i) ++qi.rank_base[i];
    qi.postings.insert(qi.postings.begin() + static_cast<ptrdiff_t>(rank),
                       Posting{});
  }
  return qi.postings[rank];
}

bool DerivedCostIndex::Within(const QueryIndex& qi, const Entry& e,
                              const Config& config, uint64_t fold,
                              size_t extra) {
  if ((e.signature & ~fold) != 0) return false;
  const uint32_t* m = qi.members.data() + e.first;
  for (uint32_t i = 0; i < e.size; ++i) {
    if (m[i] != extra && !config.test(m[i])) return false;
  }
  return true;
}

void DerivedCostIndex::Add(int query_id, const Config& config,
                           const std::vector<size_t>& positions,
                           double cost) {
  Cells& cells = configs_[config];
  // The memo now answers for `config`, which may have resolved to "never
  // evaluated" before this insert.
  memo_config_ = config;
  memo_cells_ = &cells;
  auto at = std::lower_bound(cells.begin(), cells.end(), query_id, QueryBefore);
  BATI_CHECK((at == cells.end() || at->first != query_id) &&
             "cell inserted twice");
  cells.insert(at, {query_id, cost});

  QueryIndex& qi = queries_[static_cast<size_t>(query_id)];
  const int32_t id = static_cast<int32_t>(qi.entries.size());
  Entry entry;
  entry.cost = cost;
  entry.first = static_cast<uint32_t>(qi.members.size());
  entry.size = static_cast<uint32_t>(positions.size());
  for (size_t pos : positions) {
    entry.signature |= SignatureBit(pos);
    qi.members.push_back(static_cast<uint32_t>(pos));
  }
  qi.entries.push_back(entry);
  ++entries_;

  // Keep the global ordering and every touched posting list cost-ascending.
  auto cost_less = [&qi](int32_t a, double c) {
    return qi.entries[static_cast<size_t>(a)].cost < c;
  };
  qi.by_cost.insert(
      std::lower_bound(qi.by_cost.begin(), qi.by_cost.end(), cost, cost_less),
      id);
  for (size_t pos : positions) {
    std::vector<int32_t>& list = PostingFor(qi, pos).ids;
    list.insert(std::lower_bound(list.begin(), list.end(), cost, cost_less),
                id);
  }

  if (cost < qi.best_cost) {
    qi.best_cost = cost;
    qi.best_entry = id;
  }
  if (positions.size() == 1) {
    PostingFor(qi, positions.front()).singleton = cost;
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
  // No cached cell beats the base cost: nothing to scan.
  if (qi.best_cost < base) {
    const uint64_t fold = config.Fold();
    // Monotone bound: if even the cheapest cached cell is a subset of C, no
    // other entry can beat it.
    if (Within(qi, qi.entries[static_cast<size_t>(qi.best_entry)], config,
               fold, kNoExtra)) {
      scanned = 1;
      best = qi.best_cost;
    } else {
      for (int32_t id : qi.by_cost) {
        const Entry& e = qi.entries[static_cast<size_t>(id)];
        // Cost-ascending order: once entry costs reach the running best
        // there is nothing left to gain.
        if (e.cost >= best) break;
        ++scanned;
        if (Within(qi, e, config, fold, kNoExtra)) {
          best = e.cost;
          break;  // first eligible entry in ascending order is the minimum
        }
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
  double best = current;
  int64_t scanned = 0;
  int64_t listed = 0;
  if (const Posting* posting = FindPosting(qi, pos)) {
    const std::vector<int32_t>& list = posting->ids;
    listed = static_cast<int64_t>(list.size());
    if (qi.entries[static_cast<size_t>(list.front())].cost < best) {
      const uint64_t fold = config.Fold() | SignatureBit(pos);
      for (int32_t id : list) {
        const Entry& e = qi.entries[static_cast<size_t>(id)];
        if (e.cost >= best) break;  // cost-ascending posting list
        ++scanned;
        if (Within(qi, e, config, fold, pos)) {
          best = e.cost;
          break;
        }
      }
    }
  }
  scanned_entries_ += scanned;
  pruned_entries_ += listed - scanned;
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
    const Posting* posting = FindPosting(qi, pos);
    if (posting != nullptr && posting->singleton < best) {
      best = posting->singleton;  // NaN compares false: unknown is skipped
    }
  }
  return best;
}

double DerivedCostIndex::SupersetMaxLowerBound(int query_id,
                                               const Config& config,
                                               double floor) const {
  ++lower_bound_lookups_;
  const QueryIndex& qi = at(query_id);
  const size_t members = config.count();
  const uint64_t fold = config.Fold();
  int64_t scanned = 0;
  double bound = floor;
  // Cost-descending: the first superset found carries the maximum cost.
  for (auto it = qi.by_cost.rbegin(); it != qi.by_cost.rend(); ++it) {
    const Entry& e = qi.entries[static_cast<size_t>(*it)];
    ++scanned;
    if (e.size < members) continue;  // cannot contain config
    if ((fold & ~e.signature) != 0) continue;
    // C ⊆ e iff e has |C| members inside C (its members are distinct).
    const uint32_t* m = qi.members.data() + e.first;
    size_t inside = 0;
    for (uint32_t i = 0; i < e.size; ++i) inside += config.test(m[i]);
    if (inside == members) {
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
    const Posting* posting = FindPosting(qi, pos);
    // Unknown member: no usable bound.
    if (posting == nullptr || std::isnan(posting->singleton)) return floor;
    bound -= std::max(0.0, base - posting->singleton);
  }
  return std::max(bound, floor);
}

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
