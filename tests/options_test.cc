// Option-surface tests: non-default MCTS rollout steps and the DDL dialect.

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "mcts/mcts_tuner.h"
#include "sql/ddl.h"

namespace bati {
namespace {

TEST(McstOptions, FixedRolloutStepSizes) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  TuningContext ctx;
  ctx.workload = &bundle.workload;
  ctx.candidates = &bundle.candidates;
  ctx.constraints.max_indexes = 6;
  for (int step : {0, 1, 3, 100}) {  // 100 > K: clamped to remaining slack
    CostService service(bundle.optimizer.get(), &bundle.workload,
                        &bundle.candidates.indexes, 150);
    MctsOptions options;
    options.rollout_policy = MctsOptions::RolloutPolicy::kFixedStep;
    options.fixed_rollout_step = step;
    options.seed = 21;
    MctsTuner tuner(ctx, options);
    TuningResult result = tuner.Tune(service);
    EXPECT_LE(result.best_config.count(), 6u) << "step " << step;
    EXPECT_LE(service.calls_made(), 150) << "step " << step;
  }
}

TEST(Ddl, DecimalPrecisionScaleAccepted) {
  auto stmts =
      sql::ParseDdl("CREATE TABLE t (a DECIMAL(12, 2) NDV 100)");
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  EXPECT_EQ((*stmts)[0].columns[0].type_name, "DECIMAL");
  EXPECT_EQ((*stmts)[0].columns[0].length, 12);
}

TEST(Ddl, AnnotationOrderIsFree) {
  auto a = sql::ParseDdl(
      "CREATE TABLE t (x INT RANGE (0, 9) NDV 5) WITH (ROWS 10)");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_DOUBLE_EQ(*(*a)[0].columns[0].ndv, 5);
  ASSERT_TRUE((*a)[0].columns[0].range.has_value());
  EXPECT_DOUBLE_EQ((*a)[0].columns[0].range->second, 9);
}

}  // namespace
}  // namespace bati
