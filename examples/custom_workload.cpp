// Shows the lower-level API surface on a custom schema: what-if plan
// explanations, the derived-cost machinery, and the budget allocation
// matrix layout trace (paper Section 3.2) of a tuning run.

#include <cstdio>
#include <memory>

#include "mcts/mcts_tuner.h"
#include "tuner/candidate_gen.h"
#include "whatif/cost_service.h"
#include "workload/binder.h"
#include "workload/schema_util.h"

namespace {

const char* AccessName(bati::AccessPathKind kind) {
  switch (kind) {
    case bati::AccessPathKind::kHeapScan:
      return "heap scan";
    case bati::AccessPathKind::kIndexSeek:
      return "index seek";
    case bati::AccessPathKind::kIndexOnlyScan:
      return "index-only scan";
  }
  return "?";
}

const char* JoinName(bati::JoinMethod method) {
  switch (method) {
    case bati::JoinMethod::kNone:
      return "-";
    case bati::JoinMethod::kHashJoin:
      return "hash join";
    case bati::JoinMethod::kIndexNestedLoop:
      return "index nested loops";
    case bati::JoinMethod::kMergeJoin:
      return "merge join";
  }
  return "?";
}

}  // namespace

int main() {
  using namespace bati;

  // A sensor telemetry schema: one big append-only readings table, two
  // dimension tables.
  auto db = std::make_shared<Database>("telemetry");
  {
    Table readings("readings", 50'000'000);
    readings.AddColumn(schema_util::IntCol("r_sensor", 10'000, 0, 10'000));
    readings.AddColumn(schema_util::IntCol("r_ts", 5'000'000, 0, 5'000'000));
    readings.AddColumn(schema_util::NumCol("r_value", 1'000'000, -50, 150));
    readings.AddColumn(schema_util::IntCol("r_quality", 5, 0, 5));
    BATI_CHECK_OK(db->AddTable(std::move(readings)).status());

    Table sensors("sensors", 10'000);
    sensors.AddColumn(schema_util::KeyCol("s_id", 10'000));
    sensors.AddColumn(schema_util::IntCol("s_site", 300, 0, 300));
    sensors.AddColumn(schema_util::StrCol("s_model", 20, 40));
    BATI_CHECK_OK(db->AddTable(std::move(sensors)).status());

    Table sites("sites", 300);
    sites.AddColumn(schema_util::KeyCol("t_id", 300));
    sites.AddColumn(schema_util::StrCol("t_region", 12, 8));
    BATI_CHECK_OK(db->AddTable(std::move(sites)).status());
  }

  Workload workload = schema_util::BindAll(
      "telemetry", db,
      {
          "SELECT r_value FROM readings WHERE r_sensor = 1234 AND "
          "r_ts BETWEEN 4000000 AND 4100000",
          "SELECT t_region, AVG(r_value) FROM readings, sensors, sites "
          "WHERE r_sensor = s_id AND s_site = t_id AND t_region = 'west' "
          "GROUP BY t_region",
          "SELECT COUNT(*) FROM readings WHERE r_quality = 0",
      },
      {"point_lookup", "regional_rollup", "bad_readings"});

  CandidateSet candidates = GenerateCandidates(workload);
  WhatIfOptimizer optimizer(db);

  // ---- Plan explanations: before and after an index. ----
  const Query& rollup = workload.queries[1];
  std::printf("Q2 plan with no indexes:\n");
  PlanExplanation before = optimizer.Explain(rollup, {});
  for (const PlanStep& step : before.steps) {
    std::printf("  scan %-10s %-16s %-20s cost=%10.1f rows=%.0f\n",
                db->table(rollup.scans[static_cast<size_t>(step.scan_id)]
                              .table_id)
                    .name()
                    .c_str(),
                AccessName(step.access), JoinName(step.join), step.step_cost,
                step.output_rows);
  }
  std::printf("  total=%.1f\n\n", before.total_cost);

  std::printf("Q2 plan with all candidate indexes:\n");
  PlanExplanation after = optimizer.Explain(rollup, candidates.indexes);
  for (const PlanStep& step : after.steps) {
    std::printf("  scan %-10s %-16s %-20s cost=%10.1f rows=%.0f\n",
                db->table(rollup.scans[static_cast<size_t>(step.scan_id)]
                              .table_id)
                    .name()
                    .c_str(),
                AccessName(step.access), JoinName(step.join), step.step_cost,
                step.output_rows);
  }
  std::printf("  total=%.1f  (%.1fx cheaper)\n\n", after.total_cost,
              before.total_cost / after.total_cost);

  // ---- A budgeted tuning run, then the layout trace. ----
  CostService service(&optimizer, &workload, &candidates.indexes,
                      /*budget=*/25);
  TuningContext ctx;
  ctx.workload = &workload;
  ctx.candidates = &candidates;
  ctx.constraints.max_indexes = 3;
  MctsOptions options;
  options.seed = 7;
  MctsTuner tuner(ctx, options);
  TuningResult result = tuner.Tune(service);

  std::printf("budget allocation matrix layout (the %zu what-if calls):\n",
              service.layout().size());
  for (size_t i = 0; i < service.layout().size(); ++i) {
    const LayoutEntry& e = service.layout()[i];
    std::printf("  call %2zu: query=%-15s config=%s\n", i + 1,
                workload.queries[static_cast<size_t>(e.query_id)].name.c_str(),
                e.config.ToString().c_str());
  }
  std::printf("\nfinal recommendation (%zu indexes), improvement %.1f%%:\n",
              result.best_config.count(),
              service.TrueImprovement(result.best_config));
  for (const Index& ix : service.Materialize(result.best_config)) {
    std::printf("  %s\n", ix.Name(*db).c_str());
  }
  return 0;
}
