#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "tuner/time_budget.h"

namespace bati {
namespace {

TEST(TimeBudget, PaperScaleMapping) {
  // The paper annotates 5000 TPC-DS what-if calls at ~80 minutes; the
  // latency model should put 5000 calls between 50 and 120 minutes, so an
  // 80-minute budget buys between 5000 * 80/120 and 5000 * 80/50 calls.
  const WorkloadBundle& bundle = LoadBundle("tpcds");
  const int64_t calls =
      CallBudgetForTime(*bundle.optimizer, bundle.workload, 80.0 * 60.0);
  EXPECT_GT(calls, 5000 * 80 / 120);
  EXPECT_LT(calls, 5000 * 80 / 50);
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

}  // namespace
}  // namespace bati
