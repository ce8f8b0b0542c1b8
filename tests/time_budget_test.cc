#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "tuner/time_budget.h"

namespace bati {
namespace {

TEST(TimeBudget, RoundTripsWithExpectedSeconds) {
  const WorkloadBundle& bundle = LoadBundle("tpcds");
  for (double minutes : {5.0, 20.0, 80.0}) {
    int64_t calls = CallBudgetForTime(*bundle.optimizer, bundle.workload,
                                      minutes * 60.0);
    EXPECT_GT(calls, 0);
    double seconds = ExpectedSecondsForCalls(*bundle.optimizer,
                                             bundle.workload, calls);
    EXPECT_NEAR(seconds, minutes * 60.0, minutes * 60.0 * 0.02 + 2.0);
  }
}

TEST(TimeBudget, PaperScaleMapping) {
  // The paper annotates 5000 TPC-DS what-if calls at ~80 minutes; the
  // latency model should land in that neighbourhood.
  const WorkloadBundle& bundle = LoadBundle("tpcds");
  double seconds =
      ExpectedSecondsForCalls(*bundle.optimizer, bundle.workload, 5000);
  EXPECT_GT(seconds / 60.0, 50.0);
  EXPECT_LT(seconds / 60.0, 120.0);
}

TEST(TimeBudget, OverheadFractionReservesTime) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  int64_t lean = CallBudgetForTime(*bundle.optimizer, bundle.workload, 600.0,
                                   /*overhead_fraction=*/0.0);
  int64_t padded = CallBudgetForTime(*bundle.optimizer, bundle.workload,
                                     600.0, /*overhead_fraction=*/0.5);
  EXPECT_GT(lean, padded);
  EXPECT_NEAR(static_cast<double>(padded), 0.5 * static_cast<double>(lean),
              2.0);
}

TEST(TimeBudget, ZeroTimeYieldsZeroCalls) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  EXPECT_EQ(CallBudgetForTime(*bundle.optimizer, bundle.workload, 0.0), 0);
  EXPECT_EQ(CallBudgetForTime(*bundle.optimizer, bundle.workload, -180.0), 0);
}

TEST(TimeBudget, HugeAndInfiniteTimesSaturate) {
  // The call count no longer fits an int64_t: it saturates rather than
  // wrapping through an out-of-range double -> int64_t cast.
  const WorkloadBundle& bundle = LoadBundle("tpch");
  EXPECT_EQ(CallBudgetForTime(*bundle.optimizer, bundle.workload, 6e301),
            INT64_MAX);
  EXPECT_EQ(CallBudgetForTime(*bundle.optimizer, bundle.workload,
                              std::numeric_limits<double>::infinity()),
            INT64_MAX);
}

TEST(TimeBudget, MoreComplexWorkloadsGetFewerCallsPerMinute) {
  const WorkloadBundle& tpch = LoadBundle("tpch");
  const WorkloadBundle& realm = LoadBundle("real-m");
  int64_t tpch_calls =
      CallBudgetForTime(*tpch.optimizer, tpch.workload, 600.0);
  int64_t realm_calls =
      CallBudgetForTime(*realm.optimizer, realm.workload, 600.0);
  // Real-M queries average ~21 scans vs TPC-H's ~3: each call is slower.
  EXPECT_LT(realm_calls, tpch_calls);
}

// ---------- index merging ----------

TEST(MergeIndexes, PrefixKeysMerge) {
  Index a;
  a.table_id = 0;
  a.key_columns = {1};
  a.include_columns = {5};
  Index b;
  b.table_id = 0;
  b.key_columns = {1, 2};
  b.include_columns = {6};
  auto merged = MergeIndexes(a, b);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->key_columns, (std::vector<int>{1, 2}));
  EXPECT_EQ(merged->include_columns, (std::vector<int>{5, 6}));
}

TEST(MergeIndexes, NonPrefixOrCrossTableDoNotMerge) {
  Index a;
  a.table_id = 0;
  a.key_columns = {1};
  Index b;
  b.table_id = 0;
  b.key_columns = {2, 1};
  EXPECT_FALSE(MergeIndexes(a, b).has_value());
  b.table_id = 1;
  b.key_columns = {1, 2};
  EXPECT_FALSE(MergeIndexes(a, b).has_value());
}

TEST(MergeIndexes, MergedKeyOverlapRemovedFromIncludes) {
  Index a;
  a.table_id = 0;
  a.key_columns = {1, 2};
  Index b;
  b.table_id = 0;
  b.key_columns = {1};
  b.include_columns = {2, 7};  // 2 becomes a key in the merge
  auto merged = MergeIndexes(a, b);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->include_columns, (std::vector<int>{7}));
}

TEST(MergedCandidates, ExpandTheUniverseWithProvenance) {
  const Workload w = MakeTpch();
  CandidateGenOptions plain;
  CandidateGenOptions with_merge;
  with_merge.merged_indexes = true;
  CandidateSet base = GenerateCandidates(w, plain);
  CandidateSet merged = GenerateCandidates(w, with_merge);
  EXPECT_GT(merged.size(), base.size());
  // Every merged candidate appears in at least one query's provenance.
  std::vector<bool> referenced(static_cast<size_t>(merged.size()), false);
  for (const auto& prov : merged.per_query) {
    for (int pos : prov) referenced[static_cast<size_t>(pos)] = true;
  }
  for (int pos = base.size(); pos < merged.size(); ++pos) {
    EXPECT_TRUE(referenced[static_cast<size_t>(pos)]) << pos;
  }
}

TEST(MergedCandidates, PerTableCapHolds) {
  const Workload w = MakeTpch();
  CandidateGenOptions options;
  options.merged_indexes = true;
  options.max_merged_per_table = 2;
  CandidateGenOptions plain;
  CandidateSet base = GenerateCandidates(w, plain);
  CandidateSet merged = GenerateCandidates(w, options);
  std::map<int, int> added_per_table;
  for (int pos = base.size(); pos < merged.size(); ++pos) {
    added_per_table[merged.indexes[static_cast<size_t>(pos)].table_id]++;
  }
  for (const auto& [table, count] : added_per_table) {
    EXPECT_LE(count, 2) << "table " << table;
  }
}

}  // namespace
}  // namespace bati
