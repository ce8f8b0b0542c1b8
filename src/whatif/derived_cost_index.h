#ifndef BATI_WHATIF_DERIVED_COST_INDEX_H_
#define BATI_WHATIF_DERIVED_COST_INDEX_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "whatif/budget_meter.h"
#include "whatif/cost_engine_stats.h"

namespace bati {

/// The derivation layer of the cost engine: an incremental index over the
/// cached what-if cells that answers Equation-1 subset-minimum queries
///
///   d(q, C) = min over cached subsets S of C of c(q, S)
///
/// without the O(|cache|) linear scan of the monolithic implementation.
/// Results are bit-identical to that scan (the minimum is a comparison, not
/// an arithmetic combination), only the entries examined change.
///
/// The index keeps one config table: each distinct evaluated configuration
/// is stored once, mapped to its (query, cost) cells in ascending query
/// order. A one-entry resolve memo remembers the last configuration looked
/// up, so the per-query Find() loops the tuners run over one configuration
/// cost a word compare instead of a hash.
///
/// Per query the index keeps:
///  * all entries in cost-ascending order, so a subset-minimum lookup stops
///    at the *first* entry that is a subset of C — every later entry costs
///    at least as much — and stops unconditionally once entry costs reach
///    the running best (the monotone best-so-far bound);
///  * each entry's member positions (in one flat per-query array) and a
///    64-bit signature, the OR of 1 << (pos % 64) over its members. An entry
///    can be a subset of C only if (signature & ~C.Fold()) == 0, so the
///    cost-ordered scans reject most entries with one word operation before
///    the exact member test;
///  * sparse per-candidate posting lists (entry ids containing that
///    candidate, cost-ascending), which make the incremental
///    SubsetMinWithAdd() / DeltaAdd() probes skip every entry that does not
///    contain the added candidate: an entry is newly eligible for C ∪ {z}
///    iff it contains z and its remaining members are inside C. A list
///    exists only for candidates some entry contains; a presence bitmask
///    answers the empty case without touching a list, and one more bitmap
///    over all queries tells whether any list for a candidate exists;
///  * known singleton costs, stored with the posting lists for
///    AdditiveLowerBound().
///
/// Single-threaded: each CostService owns one index and builds, queries
/// and destroys it on the thread that runs the tuner, so nothing here is
/// synchronized.
class DerivedCostIndex {
 public:
  DerivedCostIndex(int num_queries, int num_candidates);

  /// The cached cost of an exact cell, or nullopt when unknown.
  std::optional<double> Find(int query_id, const Config& config) const;

  /// Inserts a freshly evaluated cell. `positions` must equal
  /// config.ToIndices(). A cell must not be inserted twice.
  void Add(int query_id, const Config& config,
           const std::vector<size_t>& positions, double cost);

  /// d(q, C) with `base` = c(q, {}) as the always-known fallback.
  double SubsetMin(int query_id, const Config& config, double base) const;

  /// d(q, C) for every query at once: derived[q] = SubsetMin(q, C, base[q])
  /// and known[q] = 1 iff (q, C) itself is a cell of the table (0
  /// otherwise; always 0 for the empty configuration). All three spans hold
  /// one slot per query. When 2^|C| − 1 <= the number of queries, the call
  /// walks C's non-empty subsets in Gray-code order (one member toggled per
  /// step), looks each up in the config table and takes min(base, cell
  /// cost) over the cells it finds, counted as one derived_table_walks
  /// (no derived lookup, no scan-depth or lookup-latency sample);
  /// otherwise it runs SubsetMin() per query, m derived lookups. The rule
  /// depends only on |C| and the query count, and values are bit-identical
  /// either way. Points the resolve memo at C.
  void SubsetMinAll(const Config& config, std::span<const double> base,
                    std::span<double> derived,
                    std::span<uint8_t> known) const;

  /// d(q, C ∪ {pos}) given `current` = d(q, C): probes only the posting
  /// list of `pos`. Exact because every subset of C ∪ {pos} either omits
  /// pos (already accounted for by `current`) or contains it (in the
  /// posting list).
  double SubsetMinWithAdd(int query_id, const Config& config, size_t pos,
                          double current) const;

  /// True iff some cached cell, of any query, has `pos` among its members.
  /// When false, SubsetMinWithAdd(q, C, pos, current) is `current` for
  /// every query: no subset of C ∪ {pos} containing pos is cached.
  bool AnyEntryContains(size_t pos) const { return contained_.test(pos); }

  /// The derived-cost change d(q, C ∪ {pos}) − d(q, C), a value <= 0.
  /// `base` = c(q, {}).
  double DeltaAdd(int query_id, const Config& config, size_t pos,
                  double base) const;

  /// Lower bound on c(q, C) from cached *supersets*: by cost monotonicity
  /// (adding indexes never raises a query's cost) every cached S ⊇ C has
  /// c(q, S) <= c(q, C), so the maximum such cost bounds c(q, C) from
  /// below. Returns `floor` when no superset is cached. Scans entries in
  /// cost-descending order, so the first superset found is the maximum.
  double SupersetMaxLowerBound(int query_id, const Config& config,
                               double floor = 0.0) const;

  /// Heuristic lower bound on c(q, C) assuming per-index improvements are
  /// subadditive: base - sum over z in C of max(0, base - c(q, {z})).
  /// Requires every member's singleton cost to be known (returns `floor`
  /// otherwise — an unevaluated member could contribute arbitrarily much).
  /// Exact for independent scans; index interactions that make combined
  /// improvements superadditive can violate it, which is why the budget
  /// governor clamps lower bounds to the derived upper bound.
  double AdditiveLowerBound(int query_id, const Config& config, double base,
                            double floor = 0.0) const;

  /// Adds this layer's counters into `stats`.
  void AccumulateStats(CostEngineStats* stats) const;

  /// Wires scan-depth histograms and a deterministically sampled (1-in-64,
  /// keyed off the lookup counter) lookup wall-latency histogram.
  /// Null unwires. Pure observation: lookup results and the stats counters
  /// are unaffected.
  void SetObservability(MetricsRegistry* metrics);

 private:
  /// One cached cell of one query.
  struct Entry {
    double cost = 0.0;
    /// OR of 1 << (pos % 64) over the members.
    uint64_t signature = 0;
    /// The members are QueryIndex::members[first, first + size).
    uint32_t first = 0;
    uint32_t size = 0;
  };

  struct Posting {
    /// Ids of the entries containing the candidate, ascending cost.
    std::vector<int32_t> ids;
    /// The singleton cell's cost, NaN while unknown.
    double singleton = std::numeric_limits<double>::quiet_NaN();
  };

  struct QueryIndex {
    std::vector<Entry> entries;
    /// Member positions of all entries, ascending within an entry.
    std::vector<uint32_t> members;
    /// Entry ids sorted by ascending cost.
    std::vector<int32_t> by_cost;
    /// Bit pos is set iff `postings` holds a list for candidate pos.
    std::vector<uint64_t> present;
    /// rank_base[w]: the number of set bits in present[0, w).
    std::vector<uint32_t> rank_base;
    /// One list per present candidate, in candidate order.
    std::vector<Posting> postings;
    /// The number of present candidates below `pos`: its index in
    /// `postings` when present, or the index it would be inserted at.
    size_t Rank(size_t pos) const;
    /// Monotone best-so-far bound: the cheapest cached cost and its entry.
    double best_cost = std::numeric_limits<double>::infinity();
    int32_t best_entry = -1;
  };

  /// The (query, cost) cells of one configuration, ascending query id.
  using Cells = std::vector<std::pair<int32_t, double>>;

  const QueryIndex& at(int query_id) const {
    return queries_[static_cast<size_t>(query_id)];
  }

  /// The cells of `config`, or null when it was never evaluated. Goes
  /// through the resolve memo.
  const Cells* Resolve(const Config& config) const;

  /// The posting list of candidate `pos`, or null when no entry contains it.
  static const Posting* FindPosting(const QueryIndex& qi, size_t pos);
  /// The posting list of candidate `pos`, created empty when absent.
  static Posting& PostingFor(QueryIndex& qi, size_t pos);

  /// True iff entry `e` is a subset of `config` ∪ {extra}. `fold` is
  /// config.Fold() with the signature bit of `extra` set; kNoExtra (with
  /// fold = config.Fold()) makes it a plain subset test.
  static constexpr size_t kNoExtra = std::numeric_limits<size_t>::max();
  static bool Within(const QueryIndex& qi, const Entry& e,
                     const Config& config, uint64_t fold, size_t extra);

  /// The config table.
  std::unordered_map<Config, Cells, DynamicBitsetHash> configs_;
  /// Resolve memo: always holds the table's answer for `memo_config_`,
  /// which Add() keeps true by pointing it at the configuration it adds.
  mutable Config memo_config_;
  mutable const Cells* memo_cells_ = nullptr;
  /// SubsetMinAll() scratch: the subset the Gray-code walk is at (empty
  /// between calls).
  mutable Config subset_;
  std::vector<QueryIndex> queries_;
  /// Bit pos is set iff some query's entries contain candidate pos.
  Config contained_;
  int64_t entries_ = 0;
  /// Observability counters; mutable so the read-only Equation-1/2 API
  /// stays const.
  mutable int64_t derived_lookups_ = 0;
  mutable int64_t delta_lookups_ = 0;
  mutable int64_t derived_table_walks_ = 0;
  mutable int64_t scanned_entries_ = 0;
  mutable int64_t pruned_entries_ = 0;
  mutable int64_t lower_bound_lookups_ = 0;
  // Observability instruments (null when not wired).
  LatencyHistogram* obs_scan_depth_ = nullptr;
  LatencyHistogram* obs_delta_scan_depth_ = nullptr;
  LatencyHistogram* obs_lookup_wall_us_ = nullptr;
};

}  // namespace bati

#endif  // BATI_WHATIF_DERIVED_COST_INDEX_H_
