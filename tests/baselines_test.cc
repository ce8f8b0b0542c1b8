#include <cmath>

#include <gtest/gtest.h>

#include "bandit/dba_bandits.h"
#include "dqn/network.h"
#include "dqn/nodba.h"
#include "dta/dta_tuner.h"
#include "harness/experiment.h"

namespace bati {
namespace {

// ---------- minimal NN library ----------

TEST(Matrix, MatMulAndTranspose) {
  Matrix a(2, 3);
  // [1 2 3; 4 5 6]
  int v = 1;
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) a.at(i, j) = v++;
  }
  Matrix b(3, 2);
  b.Fill(1.0);
  Matrix c = a.MatMul(b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 15.0);

  Matrix t = a.Transposed();
  ASSERT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t.at(2, 1), 6.0);
}

TEST(Mlp, LearnsSimpleRegression) {
  // Fit y = 2*x0 - x1 on random inputs; the MLP must drive MSE down.
  Rng rng(71);
  Mlp net({2, 16, 16, 1}, rng);
  Matrix mask(16, 1);
  mask.Fill(1.0);
  double first_loss = -1.0, last_loss = -1.0;
  for (int step = 0; step < 400; ++step) {
    Matrix x(16, 2);
    Matrix y(16, 1);
    for (size_t i = 0; i < 16; ++i) {
      x.at(i, 0) = rng.Uniform(-1, 1);
      x.at(i, 1) = rng.Uniform(-1, 1);
      y.at(i, 0) = 2.0 * x.at(i, 0) - x.at(i, 1);
    }
    double loss = net.TrainStep(x, y, mask, 1e-2);
    if (step == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.05);
}

TEST(Mlp, MaskRestrictsGradient) {
  Rng rng(72);
  Mlp net({2, 8, 3}, rng);
  Matrix x(4, 2);
  x.Fill(0.5);
  Matrix y(4, 3);
  y.Fill(10.0);  // would produce a big error everywhere
  Matrix mask(4, 3);  // all zero: no unit contributes
  double loss = net.TrainStep(x, y, mask, 1e-2);
  EXPECT_DOUBLE_EQ(loss, 0.0);
}

TEST(Mlp, CopyFromMakesForwardIdentical) {
  Rng rng(73);
  Mlp a({3, 8, 2}, rng);
  Mlp b({3, 8, 2}, rng);
  Matrix x(1, 3);
  x.at(0, 0) = 0.3;
  x.at(0, 1) = -0.7;
  x.at(0, 2) = 0.1;
  b.CopyFrom(a);
  Matrix ya = a.Forward(x);
  Matrix yb = b.Forward(x);
  for (size_t j = 0; j < 2; ++j) {
    EXPECT_DOUBLE_EQ(ya.at(0, j), yb.at(0, j));
  }
}

// ---------- the three baselines ----------

template <typename TunerT>
void CheckBaseline(const char* workload, int64_t budget, int k) {
  const WorkloadBundle& bundle = LoadBundle(workload);
  TuningContext ctx;
  ctx.workload = &bundle.workload;
  ctx.candidates = &bundle.candidates;
  ctx.constraints.max_indexes = k;
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, budget);
  TunerT tuner(ctx, /*seed=*/13);
  TuningResult result = tuner.Tune(service);
  EXPECT_LE(service.calls_made(), budget);
  EXPECT_LE(result.best_config.count(), static_cast<size_t>(k));
  double improvement = service.TrueImprovement(result.best_config);
  EXPECT_GE(improvement, -1e-9);
  EXPECT_LE(improvement, 100.0);
}

TEST(DbaBandits, RespectsBudgetAndConstraints) {
  CheckBaseline<DbaBanditsTuner>("tpch", 200, 5);
  CheckBaseline<DbaBanditsTuner>("toy", 40, 2);
}

TEST(DbaBandits, FindsImprovementWithReasonableBudget) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  RunSpec spec;
  spec.workload = "tpch";
  spec.algorithm = "dba-bandits";
  spec.budget = 500;
  spec.max_indexes = 10;
  RunOutcome outcome = RunOnce(bundle, spec);
  EXPECT_GT(outcome.true_improvement, 5.0);
  EXPECT_FALSE(outcome.trace.empty());
}

TEST(DbaBandits, TraceIsMonotoneBestSoFar) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  RunSpec spec;
  spec.workload = "tpch";
  spec.algorithm = "dba-bandits";
  spec.budget = 300;
  spec.max_indexes = 5;
  RunOutcome outcome = RunOnce(bundle, spec);
  for (size_t i = 1; i < outcome.trace.size(); ++i) {
    EXPECT_GE(outcome.trace[i], outcome.trace[i - 1] - 1e-9);
  }
}

TEST(NoDba, RespectsBudgetAndConstraints) {
  CheckBaseline<NoDbaTuner>("tpch", 150, 5);
  CheckBaseline<NoDbaTuner>("toy", 30, 2);
}

TEST(NoDba, RoundsEvaluateWholeWorkload) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  TuningContext ctx;
  ctx.workload = &bundle.workload;
  ctx.candidates = &bundle.candidates;
  ctx.constraints.max_indexes = 5;
  const int64_t budget = 110;  // 5 full rounds of 22 queries
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, budget);
  NoDbaTuner tuner(ctx, /*seed=*/5);
  tuner.Tune(service);
  // Every layout prefix of 22 entries covers one round's configuration.
  EXPECT_LE(service.calls_made(), budget);
  EXPECT_FALSE(tuner.round_trace().empty());
}

TEST(Dta, RespectsBudgetStorageAndCardinality) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  const Database& db = *bundle.workload.database;
  TuningContext ctx;
  ctx.workload = &bundle.workload;
  ctx.candidates = &bundle.candidates;
  ctx.constraints.max_indexes = 5;
  ctx.constraints.max_storage_bytes = 3.0 * db.TotalSizeBytes();
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 400);
  DtaTuner tuner(ctx);
  TuningResult result = tuner.Tune(service);
  EXPECT_LE(service.calls_made(), 400);
  EXPECT_LE(result.best_config.count(), 5u);
  double used = 0.0;
  for (size_t pos : result.best_config.ToIndices()) {
    used += bundle.candidates.indexes[pos].SizeBytes(db);
  }
  EXPECT_LE(used, ctx.constraints.max_storage_bytes);
}

TEST(Dta, AnytimeImprovementWithGenerousBudget) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  RunSpec spec;
  spec.workload = "tpch";
  spec.algorithm = "dta";
  spec.budget = 2000;
  spec.max_indexes = 10;
  RunOutcome outcome = RunOnce(bundle, spec);
  EXPECT_GT(outcome.true_improvement, 10.0);
}

TEST(Dta, TunesExpensiveQueriesFirst) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  TuningContext ctx;
  ctx.workload = &bundle.workload;
  ctx.candidates = &bundle.candidates;
  ctx.constraints.max_indexes = 5;
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 30);
  DtaTuner tuner(ctx);
  tuner.Tune(service);
  ASSERT_FALSE(service.layout().empty());
  // The first what-if call must concern the most expensive query.
  int most_expensive = 0;
  for (int q = 1; q < service.num_queries(); ++q) {
    if (service.BaseCost(q) > service.BaseCost(most_expensive)) {
      most_expensive = q;
    }
  }
  EXPECT_EQ(service.layout().front().query_id, most_expensive);
}

}  // namespace
}  // namespace bati
