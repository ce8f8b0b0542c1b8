#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "obs/metrics.h"
#include "whatif/cost_service.h"

namespace bati {
namespace {

TEST(ExponentialBuckets, LadderShape) {
  std::vector<double> b = ExponentialBuckets(1.0, 2.0, 5);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  EXPECT_DOUBLE_EQ(b[2], 4.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
  EXPECT_DOUBLE_EQ(b[4], 16.0);
}

TEST(CounterGauge, BasicSemantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(2.5);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(LatencyHistogram, EmptySnapshotIsAllZero) {
  LatencyHistogram h(ExponentialBuckets(1.0, 2.0, 8));
  LatencyHistogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(LatencyHistogram, SingleValueIsExactEverywhere) {
  // min == max clamps every interpolated percentile to the one observation.
  LatencyHistogram h(ExponentialBuckets(1.0, 2.0, 16));
  h.Record(7.25);
  LatencyHistogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 1);
  EXPECT_DOUBLE_EQ(s.sum, 7.25);
  EXPECT_DOUBLE_EQ(s.min, 7.25);
  EXPECT_DOUBLE_EQ(s.max, 7.25);
  EXPECT_DOUBLE_EQ(s.mean, 7.25);
  EXPECT_DOUBLE_EQ(s.p50, 7.25);
  EXPECT_DOUBLE_EQ(s.p95, 7.25);
  EXPECT_DOUBLE_EQ(s.p99, 7.25);
}

TEST(LatencyHistogram, PercentilesBracketTheDistribution) {
  LatencyHistogram h(ExponentialBuckets(1.0, 2.0, 12));
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));
  LatencyHistogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  // Bucketed percentiles are estimates; they must stay inside the owning
  // bucket (p50 of 1..100 lives in (32, 64], p95/p99 in (64, 100]).
  EXPECT_GT(s.p50, 32.0);
  EXPECT_LE(s.p50, 64.0);
  EXPECT_GT(s.p95, 64.0);
  EXPECT_LE(s.p95, 100.0);
  EXPECT_GE(s.p99, s.p95);
  EXPECT_LE(s.p99, 100.0);
}

TEST(LatencyHistogram, OverflowBucketStillClampsToObservedMax) {
  LatencyHistogram h(ExponentialBuckets(1.0, 2.0, 3));  // bounds 1, 2, 4
  h.Record(1000.0);
  h.Record(2000.0);
  LatencyHistogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 2);
  EXPECT_DOUBLE_EQ(s.max, 2000.0);
  EXPECT_LE(s.p99, 2000.0);
  EXPECT_GE(s.p99, 1000.0);
}

TEST(MetricsRegistry, InstrumentsAreIdentityStable) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("a");
  Counter* c2 = reg.GetCounter("a");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, reg.GetCounter("b"));
  LatencyHistogram* h1 = reg.GetHistogram("h", ExponentialBuckets(1, 2, 4));
  // Second Get with different bounds returns the existing instrument.
  LatencyHistogram* h2 = reg.GetHistogram("h", ExponentialBuckets(1, 2, 9));
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->bounds().size(), 4u);
  EXPECT_EQ(reg.GetGauge("g"), reg.GetGauge("g"));
}

TEST(MetricsRegistry, SnapshotLookupAndJson) {
  MetricsRegistry reg;
  reg.GetCounter("runs")->Add(3);
  reg.GetGauge("temp")->Set(1.5);
  reg.GetHistogram("lat", ExponentialBuckets(1, 2, 4))->Record(2.0);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("runs"), 3);
  EXPECT_EQ(snap.CounterValue("missing", -7), -7);
  ASSERT_NE(snap.FindHistogram("lat"), nullptr);
  EXPECT_EQ(snap.FindHistogram("lat")->stats.count, 1);
  EXPECT_EQ(snap.FindHistogram("nope"), nullptr);
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\":3"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(snap.ToText().find("lat"), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentRecordingKeepsExactTotals) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("hits");
  LatencyHistogram* h = reg.GetHistogram("lat", ExponentialBuckets(1, 2, 20));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(static_cast<double>(1 + (t * kPerThread + i) % 512));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c->value(), kThreads * kPerThread);
  LatencyHistogram::Snapshot s = h->Snap();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 512.0);
}

// One batched WhatIfCostMany() records its sampled cell latencies and one
// batch observation into the registry's instruments.
TEST(MetricsRegistry, ExecutorBatchRecordsThroughRegistry) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  const int n = bundle.workload.num_queries();
  MetricsRegistry reg;
  CostEngineOptions options;
  options.metrics = &reg;
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, /*budget=*/1000, options);
  Config config = service.EmptyConfig();
  config.set(0);
  std::vector<int> query_ids;
  for (int q = 0; q < n; ++q) query_ids.push_back(q);
  std::vector<std::optional<double>> costs =
      service.WhatIfCostMany(query_ids, config);
  ASSERT_EQ(costs.size(), static_cast<size_t>(n));
  for (const auto& cost : costs) EXPECT_TRUE(cost.has_value());
  service.FinishObservability();
  MetricsSnapshot snap = reg.Snapshot();
  // Per-cell histograms are sampled 1-in-(kObsSampleMask + 1) so the
  // instruments stay off the hot path; one batch of n cells records
  // ceil(n / period) observations in each.
  const int period = static_cast<int>(WhatIfExecutor::kObsSampleMask) + 1;
  const int expected = (n + period - 1) / period;
  const MetricsSnapshot::HistogramRow* sim =
      snap.FindHistogram("whatif.cell_sim_s");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->stats.count, expected);
  const MetricsSnapshot::HistogramRow* cell =
      snap.FindHistogram("whatif.cell_wall_us");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->stats.count, expected);
  const MetricsSnapshot::HistogramRow* batch =
      snap.FindHistogram("whatif.batch_cells");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->stats.count, 1);
  EXPECT_DOUBLE_EQ(batch->stats.max, static_cast<double>(n));
  EXPECT_EQ(snap.CounterValue("engine.whatif_calls"), n);
}

}  // namespace
}  // namespace bati
