// Tests for the execution engine: the covering B+-tree against a std::map
// oracle, deterministic store materialization, predicate realization,
// rank-correlation statistics, and — the contract
// everything else rests on — plan-driven execution agreeing exactly with
// the scalar reference executor under every index configuration.

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/btree.h"
#include "exec/correlation.h"
#include "exec/executor.h"
#include "exec/harness.h"
#include "tuner/candidate_gen.h"
#include "workload/generators.h"

namespace bati::exec {
namespace {

// ---------------------------------------------------------------------------
// B+-tree vs std::map oracle.

using OracleKey = std::pair<std::vector<double>, uint32_t>;  // key, row_id
using Oracle = std::map<OracleKey, std::vector<double>>;     // -> payload

std::vector<BTree::Entry> Collect(const BTree& tree) {
  std::vector<BTree::Entry> out;
  tree.Scan([&](const BTree::Entry& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

void ExpectMatchesOracle(const BTree& tree, const Oracle& oracle, int kw,
                         int pw) {
  const std::vector<BTree::Entry> got = Collect(tree);
  ASSERT_EQ(got.size(), oracle.size());
  size_t i = 0;
  for (const auto& [key, payload] : oracle) {
    for (int k = 0; k < kw; ++k) {
      EXPECT_EQ(got[i].key[k], key.first[static_cast<size_t>(k)]);
    }
    EXPECT_EQ(got[i].row_id, key.second);
    for (int p = 0; p < pw; ++p) {
      EXPECT_EQ(got[i].payload[p], payload[static_cast<size_t>(p)]);
    }
    ++i;
  }
}

/// Bulk-loads `tree` from the oracle, whose map order is the tree's own
/// (key lexicographic, then row id), so the input is sorted as required.
void LoadFromOracle(const Oracle& oracle, BTree* tree) {
  std::vector<double> keys, payloads;
  std::vector<uint32_t> rows;
  for (const auto& [key, payload] : oracle) {
    keys.insert(keys.end(), key.first.begin(), key.first.end());
    payloads.insert(payloads.end(), payload.begin(), payload.end());
    rows.push_back(key.second);
  }
  tree->BulkLoad(keys, payloads, rows);
}

/// `n` entries with two key columns drawn from [0, max_val] (so duplicate
/// keys are guaranteed) and `pw` payload columns derived from the row id.
Oracle RandomOracle(uint32_t n, int max_val, int pw, uint64_t seed) {
  Oracle oracle;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> val(0, max_val);
  for (uint32_t r = 0; r < n; ++r) {
    std::vector<double> key = {static_cast<double>(val(rng)),
                               static_cast<double>(val(rng))};
    std::vector<double> payload;
    for (int p = 0; p < pw; ++p) {
      payload.push_back(static_cast<double>(r) * (p + 0.5));
    }
    oracle[{key, r}] = payload;
  }
  return oracle;
}

TEST(BTree, BulkLoadMatchesOracleAcrossLevels) {
  const int kw = 2, pw = 2;
  BTree tree(kw, pw, /*leaf_capacity=*/4);  // tiny nodes force height > 2
  const Oracle oracle = RandomOracle(500, 40, pw, 7);
  LoadFromOracle(oracle, &tree);
  EXPECT_EQ(tree.size(), 500);
  EXPECT_GT(tree.height(), 2);
  ExpectMatchesOracle(tree, oracle, kw, pw);
}

TEST(BTree, SeekPrefixMatchesOracle) {
  const int kw = 2, pw = 1;
  BTree tree(kw, pw, 4);
  const Oracle oracle = RandomOracle(400, 15, pw, 13);
  LoadFromOracle(oracle, &tree);
  ASSERT_GT(tree.height(), 2);
  for (int first = 0; first <= 15; ++first) {
    // Full-prefix and partial-prefix seeks against a filtered oracle walk.
    const double p1[2] = {static_cast<double>(first), 7.0};
    std::vector<uint32_t> got;
    tree.SeekPrefix(p1, 2, [&](const BTree::Entry& e) {
      got.push_back(e.row_id);
      return true;
    });
    std::vector<uint32_t> want;
    for (const auto& [key, payload] : oracle) {
      if (key.first[0] == p1[0] && key.first[1] == p1[1]) {
        want.push_back(key.second);
      }
    }
    EXPECT_EQ(got, want) << "full prefix " << first;

    got.clear();
    tree.SeekPrefix(p1, 1, [&](const BTree::Entry& e) {
      got.push_back(e.row_id);
      return true;
    });
    want.clear();
    for (const auto& [key, payload] : oracle) {
      if (key.first[0] == p1[0]) want.push_back(key.second);
    }
    EXPECT_EQ(got, want) << "partial prefix " << first;
  }
}

TEST(BTree, SeekRangeMatchesOracle) {
  const int kw = 2, pw = 1;
  BTree tree(kw, pw, 4);
  const Oracle oracle = RandomOracle(400, 20, pw, 17);
  LoadFromOracle(oracle, &tree);
  ASSERT_GT(tree.height(), 2);
  // Range on the second column under an equality prefix, and a pure range
  // on the leading column (prefix_len 0).
  const double prefix[1] = {9.0};
  std::vector<uint32_t> got;
  tree.SeekRange(prefix, 1, 5.0, 12.0, [&](const BTree::Entry& e) {
    got.push_back(e.row_id);
    return true;
  });
  std::vector<uint32_t> want;
  for (const auto& [key, payload] : oracle) {
    if (key.first[0] == 9.0 && key.first[1] >= 5.0 && key.first[1] <= 12.0) {
      want.push_back(key.second);
    }
  }
  EXPECT_EQ(got, want);

  got.clear();
  tree.SeekRange(nullptr, 0, 3.0, 6.0, [&](const BTree::Entry& e) {
    got.push_back(e.row_id);
    return true;
  });
  want.clear();
  for (const auto& [key, payload] : oracle) {
    if (key.first[0] >= 3.0 && key.first[0] <= 6.0) {
      want.push_back(key.second);
    }
  }
  EXPECT_EQ(got, want);
}

TEST(BTree, VisitorEarlyStop) {
  BTree tree(2, 1, 4);
  LoadFromOracle(RandomOracle(100, 9, 1, 19), &tree);
  int visited = 0;
  tree.Scan([&](const BTree::Entry&) { return ++visited < 10; });
  EXPECT_EQ(visited, 10);
}

// ---------------------------------------------------------------------------
// Store materialization.

TEST(ColumnStore, DeterministicAndPoolAligned) {
  WorkloadOptions wopts;
  wopts.scale = 0.001;
  const Workload w = MakeWorkloadByName("tpch", wopts);
  ASSERT_NE(w.database, nullptr);
  StoreOptions sopts;
  const ColumnStore a(*w.database, sopts);
  const ColumnStore b(*w.database, sopts);
  ASSERT_EQ(a.num_tables(), b.num_tables());
  for (int t = 0; t < a.num_tables(); ++t) {
    EXPECT_EQ(a.rows(t), w.database->table(t).row_count());
    ASSERT_EQ(a.heap(t), b.heap(t)) << "store not deterministic, table "
                                    << t;
    for (int c = 0; c < a.num_cols(t); ++c) {
      const std::vector<double>& pool = a.pool(t, c);
      ASSERT_FALSE(pool.empty());
      EXPECT_TRUE(std::is_sorted(pool.begin(), pool.end()));
      // Every materialized value comes from the pool.
      std::set<double> pool_set(pool.begin(), pool.end());
      for (int64_t r = 0; r < std::min<int64_t>(a.rows(t), 200); ++r) {
        EXPECT_TRUE(pool_set.count(a.value(t, r, c)))
            << "table " << t << " col " << c << " row " << r;
      }
    }
  }
}

TEST(ColumnStore, QuantileBracketsDistribution) {
  WorkloadOptions wopts;
  wopts.scale = 0.001;
  const Workload w = MakeWorkloadByName("tpch", wopts);
  const ColumnStore store(*w.database, StoreOptions{});
  // Quantile(f) is the smallest pool value whose cumulative mass reaches
  // `f`, so at least an `f` fraction of rows lies at or below it (modulo
  // sampling noise) — the bracketing property range-predicate realization
  // relies on. The overshoot above `f` is bounded by pool granularity, so
  // we only assert the one-sided bracket plus monotonicity in `f`.
  const int t = 0;
  const int c = 0;
  double prev_v = -std::numeric_limits<double>::infinity();
  double prev_realized = 0.0;
  for (double f : {0.25, 0.5, 0.75}) {
    const double v = store.Quantile(t, c, f);
    EXPECT_GE(v, prev_v) << "f=" << f;
    prev_v = v;
    int64_t at_or_below = 0;
    for (int64_t r = 0; r < store.rows(t); ++r) {
      if (store.value(t, r, c) <= v) ++at_or_below;
    }
    const double realized = static_cast<double>(at_or_below) /
                            static_cast<double>(store.rows(t));
    EXPECT_GE(realized, f - 0.05) << "f=" << f;
    EXPECT_GE(realized, prev_realized) << "f=" << f;
    prev_realized = realized;
  }
}

// ---------------------------------------------------------------------------
// Correlation statistics.

TEST(Correlation, KnownValues) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(SpearmanRho(x, {2, 4, 6, 8, 10}), 1.0);
  EXPECT_DOUBLE_EQ(SpearmanRho(x, {10, 8, 6, 4, 2}), -1.0);
  EXPECT_DOUBLE_EQ(KendallTau(x, {2, 4, 6, 8, 10}), 1.0);
  EXPECT_DOUBLE_EQ(KendallTau(x, {10, 8, 6, 4, 2}), -1.0);
  // Constant side: defined as 0, not NaN.
  EXPECT_DOUBLE_EQ(SpearmanRho(x, {7, 7, 7, 7, 7}), 0.0);
  EXPECT_DOUBLE_EQ(KendallTau(x, {7, 7, 7, 7, 7}), 0.0);
  // One swap away from perfect.
  const double rho = SpearmanRho(x, {2, 4, 8, 6, 10});
  EXPECT_GT(rho, 0.8);
  EXPECT_LT(rho, 1.0);
}

TEST(Correlation, FractionalRanksAverageTies) {
  const std::vector<double> ranks = FractionalRanks({10, 20, 20, 30});
  ASSERT_EQ(ranks.size(), 4u);
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

// ---------------------------------------------------------------------------
// Plan-driven execution vs the scalar reference executor.

TEST(Executor, EveryConfigurationMatchesReference) {
  WorkloadOptions wopts;
  wopts.scale = 0.001;
  const Workload w = MakeWorkloadByName("tpch", wopts);
  ASSERT_NE(w.database, nullptr);
  ExecutionEngine engine(w, StoreOptions{});
  const CandidateSet candidates = GenerateCandidates(w);
  ASSERT_GT(candidates.size(), 0);

  // The reference result is configuration-independent by construction;
  // every plan the optimizer picks must reproduce it exactly.
  std::vector<ExecResult> reference;
  for (int qi = 0; qi < w.num_queries(); ++qi) {
    reference.push_back(engine.ExecuteReference(qi));
    EXPECT_GE(reference.back().output_rows, 0);
  }

  std::mt19937_64 rng(0xE7);
  std::uniform_int_distribution<int> pick(0,
                                          candidates.size() - 1);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<Index> config;
    for (int k = 0; k <= trial; ++k) {
      config.push_back(
          candidates.indexes[static_cast<size_t>(pick(rng))]);
    }
    const ExecutionEngine::RunResult run = engine.ExecuteWorkload(config);
    ASSERT_EQ(run.per_query.size(), reference.size());
    for (size_t qi = 0; qi < reference.size(); ++qi) {
      EXPECT_TRUE(run.per_query[qi] == reference[qi])
          << "trial " << trial << " query " << qi << ": got ("
          << run.per_query[qi].joined_rows << ", "
          << run.per_query[qi].output_rows << ", "
          << run.per_query[qi].checksum << ") want ("
          << reference[qi].joined_rows << ", " << reference[qi].output_rows
          << ", " << reference[qi].checksum << ")";
    }
  }
}

TEST(Executor, ToyWorkloadMatchesReferenceUnderFullCandidateSet) {
  const Workload w = MakeWorkloadByName("toy");
  ASSERT_NE(w.database, nullptr);
  ExecutionEngine engine(w, StoreOptions{});
  const CandidateSet candidates = GenerateCandidates(w);
  const ExecutionEngine::RunResult run =
      engine.ExecuteWorkload(candidates.indexes);
  for (int qi = 0; qi < w.num_queries(); ++qi) {
    const ExecResult ref = engine.ExecuteReference(qi);
    EXPECT_TRUE(run.per_query[static_cast<size_t>(qi)] == ref)
        << "query " << qi;
    EXPECT_GT(ref.joined_rows, 0) << "toy query " << qi
                                  << " selects nothing — dead test";
  }
}

TEST(Harness, CorrelationReportShapeAndValidation) {
  WorkloadOptions wopts;
  wopts.scale = 0.001;
  const Workload w = MakeWorkloadByName("tpch", wopts);
  ExecutionEngine engine(w, StoreOptions{});
  const CandidateSet candidates = GenerateCandidates(w);

  CorrelationOptions copts;
  copts.num_configs = 4;
  copts.sample_configs = 12;
  copts.max_config_size = 3;
  copts.repetitions = 1;
  copts.passes = 2;
  const CorrelationReport report =
      RunCorrelation(&engine, candidates.indexes, copts);
  EXPECT_EQ(report.num_configs, 4);
  EXPECT_EQ(report.configs.size(), 4u);
  EXPECT_EQ(report.spearman_per_pass.size(), 2u);
  EXPECT_TRUE(report.validated);
  EXPECT_EQ(report.store_rows, engine.store().total_rows());
  // Costs ascend (spread selection keeps sort order) and the empty config
  // is the dearest end of the trajectory-seeded pool.
  for (size_t i = 1; i < report.configs.size(); ++i) {
    EXPECT_GE(report.configs[i].whatif_cost,
              report.configs[i - 1].whatif_cost);
  }
  for (const ConfigMeasurement& m : report.configs) {
    EXPECT_EQ(m.seconds.size(), 2u);
    EXPECT_GT(m.seconds_best, 0.0);
    EXPECT_EQ(m.per_query_seconds.size(),
              static_cast<size_t>(w.num_queries()));
  }
}

TEST(Executor, CountersTrackOperators) {
  MetricsRegistry metrics;
  const Workload w = MakeWorkloadByName("toy");
  ExecutionEngine engine(w, StoreOptions{}, &metrics);
  const CandidateSet candidates = GenerateCandidates(w);
  engine.ExecuteWorkload({});                  // heap scans only
  engine.ExecuteWorkload(candidates.indexes);  // index plans
  const MetricsSnapshot snap = metrics.Snapshot();
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("exec.seqscan.scans"), std::string::npos);
  EXPECT_NE(json.find("exec.index.seeks"), std::string::npos);
  EXPECT_NE(json.find("exec.trees.built"), std::string::npos);
}

/// The registry's operator counters as one OpCounts (trees excluded).
OpCounts ReadOpCounts(const ExecCounters& c) {
  return {c.seq_scans->value(),       c.seq_rows->value(),
          c.index_seeks->value(),     c.index_entries->value(),
          c.index_full_scans->value(), c.heap_lookups->value(),
          c.hash_builds->value(),     c.hash_build_rows->value(),
          c.hash_probe_rows->value(), c.merge_rows->value(),
          c.sort_rows->value(),       c.agg_groups->value(),
          c.result_rows->value()};
}

OpCounts Minus(const OpCounts& a, const OpCounts& b) {
  return {a.seq_scans - b.seq_scans,
          a.seq_rows - b.seq_rows,
          a.index_seeks - b.index_seeks,
          a.index_entries - b.index_entries,
          a.index_full_scans - b.index_full_scans,
          a.heap_lookups - b.heap_lookups,
          a.hash_builds - b.hash_builds,
          a.hash_build_rows - b.hash_build_rows,
          a.hash_probe_rows - b.hash_probe_rows,
          a.merge_rows - b.merge_rows,
          a.sort_rows - b.sort_rows,
          a.agg_groups - b.agg_groups,
          a.result_rows - b.result_rows};
}

/// A plan step with its index named by content instead of position.
struct ResolvedStep {
  int scan_id;
  AccessPathKind access;
  JoinMethod join;
  std::vector<Index> index;  // empty for the heap

  bool operator==(const ResolvedStep&) const = default;
};

std::vector<ResolvedStep> Resolve(const PlanExplanation& plan,
                                  const std::vector<Index>& config) {
  std::vector<ResolvedStep> out;
  for (const PlanStep& step : plan.steps) {
    ResolvedStep r{step.scan_id, step.access, step.join, {}};
    if (step.index_pos >= 0) {
      r.index.push_back(config[static_cast<size_t>(step.index_pos)]);
    }
    out.push_back(r);
  }
  return out;
}

bool SameShape(const std::vector<ResolvedStep>& a,
               const std::vector<ResolvedStep>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].scan_id != b[i].scan_id || a[i].access != b[i].access ||
        a[i].join != b[i].join || a[i].index.size() != b[i].index.size()) {
      return false;
    }
  }
  return true;
}

TEST(Executor, WorkMemoizesOperatorCountsByResolvedPlan) {
  const Workload w = MakeWorkloadByName("toy");
  const CandidateSet candidates = GenerateCandidates(w);
  ASSERT_EQ(candidates.size(), 8);
  MetricsRegistry memo_metrics;
  MetricsRegistry ref_metrics;
  ExecutionEngine memo(w, StoreOptions{}, &memo_metrics);
  // A second engine that never runs Work: its registry deltas around
  // ExecuteOne are the operator work of a real execution.
  ExecutionEngine ref(w, StoreOptions{}, &ref_metrics);
  const ExecCounters memo_c = ExecCounters::Resolve(&memo_metrics);
  const ExecCounters ref_c = ExecCounters::Resolve(&ref_metrics);

  // 16 seeded subsets of the 8 candidates, each in two position orders.
  std::mt19937_64 rng(0x19);
  std::vector<std::vector<Index>> configs;
  for (int i = 0; i < 16; ++i) {
    const uint64_t mask = rng() & 0xFF;
    std::vector<Index> subset;
    for (int b = 0; b < 8; ++b) {
      if ((mask >> b) & 1) subset.push_back(candidates.indexes[b]);
    }
    configs.push_back(subset);
    std::shuffle(subset.begin(), subset.end(), rng);
    configs.push_back(subset);
  }

  // Expected hits come from an independent model of the resolved plan.
  std::vector<std::pair<int, std::vector<ResolvedStep>>> seen;
  int lookups = 0;
  int reorder_hits = 0;
  int index_only_misses = 0;
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    const std::vector<Index>& config = configs[ci];
    for (int qi = 0; qi < w.num_queries(); ++qi) {
      const std::vector<ResolvedStep> resolved = Resolve(
          memo.optimizer().Explain(w.queries[static_cast<size_t>(qi)],
                                   config),
          config);
      bool expect_hit = false;
      bool same_shape_other_index = false;
      for (const auto& [q, r] : seen) {
        if (q != qi) continue;
        expect_hit = expect_hit || r == resolved;
        same_shape_other_index = same_shape_other_index ||
                                 (r != resolved && SameShape(r, resolved));
      }
      const int64_t hits_before = memo_c.plan_memo_hits->value();
      const OpCounts work = memo.Work(qi, config);
      ++lookups;
      const OpCounts ref_before = ReadOpCounts(ref_c);
      ref.ExecuteOne(qi, config);
      EXPECT_EQ(work, Minus(ReadOpCounts(ref_c), ref_before))
          << "config " << ci << " query " << qi;
      const bool hit = memo_c.plan_memo_hits->value() > hits_before;
      EXPECT_EQ(hit, expect_hit) << "config " << ci << " query " << qi;
      if (hit && ci % 2 == 1) ++reorder_hits;
      if (!hit && same_shape_other_index) ++index_only_misses;
      if (!expect_hit) seen.emplace_back(qi, resolved);
    }
  }
  EXPECT_EQ(memo_c.plan_memo_hits->value() + memo_c.plan_memo_misses->value(),
            lookups);
  EXPECT_EQ(memo_c.plan_memo_misses->value(),
            static_cast<int64_t>(seen.size()));
  // Neither property may pass vacuously.
  EXPECT_GT(reorder_hits, 0);
  EXPECT_GT(index_only_misses, 0);

  // A second sweep executes nothing: every lookup is a hit.
  const int64_t rows_before = memo_c.seq_rows->value();
  const int64_t entries_before = memo_c.index_entries->value();
  const int64_t hits_before = memo_c.plan_memo_hits->value();
  for (const std::vector<Index>& config : configs) {
    for (int qi = 0; qi < w.num_queries(); ++qi) memo.Work(qi, config);
  }
  EXPECT_EQ(memo_c.seq_rows->value(), rows_before);
  EXPECT_EQ(memo_c.index_entries->value(), entries_before);
  EXPECT_EQ(memo_c.plan_memo_hits->value() - hits_before, lookups);
}

TEST(StoreCache, EnginesShareOneMaterializedStore) {
  // Two engines over the same database and store options share one
  // materialized ColumnStore — re-materialization per engine was the cost
  // that made repeated correlation runs (and per-decision signal
  // evaluations) quadratic in store size.
  const Workload w = MakeWorkloadByName("toy");
  ASSERT_NE(w.database, nullptr);
  ExecutionEngine a(w, StoreOptions{});
  ExecutionEngine b(w, StoreOptions{});
  EXPECT_EQ(&a.store(), &b.store());
  // A different seed is a different store: the cache keys on the exact
  // (database, seed, row-cap) triple, never on "close enough".
  StoreOptions reseeded;
  reseeded.seed = reseeded.seed + 1;
  ExecutionEngine c(w, reseeded);
  EXPECT_NE(&a.store(), &c.store());
  EXPECT_EQ(a.store().total_rows(), c.store().total_rows());
  // A copy of the workload shares the database object, so it shares the
  // store too — the cache follows identity, not name equality.
  const Workload copy = w;
  ExecutionEngine d(copy, StoreOptions{});
  EXPECT_EQ(&a.store(), &d.store());
}

}  // namespace
}  // namespace bati::exec
