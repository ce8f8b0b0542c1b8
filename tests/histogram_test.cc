#include <memory>

#include <gtest/gtest.h>

#include "catalog/histogram.h"
#include "workload/binder.h"
#include "workload/schema_util.h"

namespace bati {
namespace {

TEST(Histogram, MakeValidation) {
  EXPECT_FALSE(Histogram::Make({0.0}, {}).ok());               // too few bounds
  EXPECT_FALSE(Histogram::Make({0.0, 1.0}, {0.5, 0.5}).ok());  // size mismatch
  EXPECT_FALSE(Histogram::Make({1.0, 0.0}, {1.0}).ok());       // descending
  EXPECT_FALSE(Histogram::Make({0.0, 1.0}, {-1.0}).ok());      // negative
  EXPECT_FALSE(Histogram::Make({0.0, 1.0}, {0.0}).ok());       // zero mass
  EXPECT_TRUE(Histogram::Make({0.0, 1.0, 2.0}, {3.0, 1.0}).ok());
}

TEST(Histogram, FractionsAreNormalized) {
  auto h = Histogram::Make({0.0, 1.0, 2.0}, {3.0, 1.0});
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(h->fractions()[0], 0.75);
  EXPECT_DOUBLE_EQ(h->fractions()[1], 0.25);
}

TEST(Histogram, CumulativeBelowInterpolates) {
  // Ten equal buckets over [0, 100].
  const Histogram h =
      *Histogram::Make({0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
                       std::vector<double>(10, 1.0));
  EXPECT_DOUBLE_EQ(h.CumulativeBelow(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(h.CumulativeBelow(0.0), 0.0);
  EXPECT_NEAR(h.CumulativeBelow(25.0), 0.25, 1e-12);
  EXPECT_NEAR(h.CumulativeBelow(99.0), 0.99, 1e-12);
  EXPECT_DOUBLE_EQ(h.CumulativeBelow(100.0), 1.0);
  EXPECT_DOUBLE_EQ(h.CumulativeBelow(1e9), 1.0);
}

TEST(Histogram, RangeFraction) {
  const Histogram h = *Histogram::Make({0, 25, 50, 75, 100}, {1, 1, 1, 1});
  EXPECT_NEAR(h.RangeFraction(25.0, 75.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(h.RangeFraction(80.0, 10.0), 0.0);  // inverted
  EXPECT_NEAR(h.RangeFraction(-100.0, 200.0), 1.0, 1e-12);
}

TEST(Histogram, ZipfIsHeadHeavy) {
  Histogram h = Histogram::Zipf(0.0, 100.0, 10, 1.5);
  EXPECT_GT(h.fractions().front(), h.fractions().back() * 5);
  double total = 0.0;
  for (double f : h.fractions()) total += f;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // The skew shows in cumulative terms: half the mass sits well before the
  // midpoint of the domain.
  EXPECT_GT(h.CumulativeBelow(50.0), 0.75);
}

TEST(Histogram, EqualityFractionFollowsBucketMass) {
  Histogram h = Histogram::Zipf(0.0, 100.0, 10, 1.2);
  double head = h.EqualityFraction(5.0, 100.0);
  double tail = h.EqualityFraction(95.0, 100.0);
  EXPECT_GT(head, tail);
  EXPECT_DOUBLE_EQ(h.EqualityFraction(-1.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(h.EqualityFraction(101.0, 100.0), 0.0);
}

TEST(Histogram, EmptyHistogramIsInert) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.CumulativeBelow(3.0), 0.0);
  EXPECT_DOUBLE_EQ(h.RangeFraction(0.0, 1.0), 0.0);
}

// ---------- integration with selectivity estimation ----------

TEST(HistogramSelectivity, SkewChangesRangeEstimates) {
  Column uniform = schema_util::IntCol("u", 1000, 0, 1000);
  Column skewed = schema_util::IntCol("z", 1000, 0, 1000);
  skewed.stats.histogram = Histogram::Zipf(0, 1000, 20, 1.5);

  // "x < 100" selects 10% under uniformity but much more under head skew.
  double su = LiteralSelectivity(uniform, sql::CmpOp::kLt, 100);
  double sz = LiteralSelectivity(skewed, sql::CmpOp::kLt, 100);
  EXPECT_NEAR(su, 0.1, 1e-9);
  EXPECT_GT(sz, 0.3);

  // Complement relation holds for both.
  EXPECT_NEAR(LiteralSelectivity(skewed, sql::CmpOp::kGe, 100), 1.0 - sz,
              1e-9);
}

TEST(HistogramSelectivity, EqualityHeadVsTail) {
  Column skewed = schema_util::IntCol("z", 1000, 0, 1000);
  skewed.stats.histogram = Histogram::Zipf(0, 1000, 20, 1.5);
  double head = LiteralSelectivity(skewed, sql::CmpOp::kEq, 10);
  double tail = LiteralSelectivity(skewed, sql::CmpOp::kEq, 990);
  EXPECT_GT(head, tail);
}

TEST(HistogramSelectivity, BetweenUsesHistogram) {
  Column skewed = schema_util::IntCol("z", 1000, 0, 1000);
  skewed.stats.histogram = Histogram::Zipf(0, 1000, 20, 1.5);
  double head_range = BetweenSelectivity(skewed, 0, 100);
  double tail_range = BetweenSelectivity(skewed, 900, 1000);
  EXPECT_GT(head_range, tail_range * 3);
}

TEST(HistogramSelectivity, WholePipelineStillMonotone) {
  // Attaching histograms must not break the optimizer's monotonicity: it
  // only changes cardinalities, not the min-over-paths structure.
  auto db = std::make_shared<Database>("db");
  Table t("t", 1000000);
  Column c = schema_util::IntCol("v", 10000, 0, 10000);
  c.stats.histogram = Histogram::Zipf(0, 10000, 30, 1.3);
  t.AddColumn(c);
  t.AddColumn(schema_util::IntCol("w", 500, 0, 500));
  BATI_CHECK_OK(db->AddTable(std::move(t)).status());
  auto q = BindSql("SELECT w FROM t WHERE v < 50", *db);
  ASSERT_TRUE(q.ok());
  EXPECT_GT(q->filters[0].selectivity, 0.0);
  EXPECT_LE(q->filters[0].selectivity, 1.0);
}

}  // namespace
}  // namespace bati
