#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "tuner/greedy.h"
#include "pinned_results.h"

namespace bati {
namespace {

struct GreedyFixture {
  const WorkloadBundle& bundle;
  TuningContext ctx;

  explicit GreedyFixture(const char* workload, int k = 5,
                         double storage = 0.0)
      : bundle(LoadBundle(workload)) {
    ctx.workload = &bundle.workload;
    ctx.candidates = &bundle.candidates;
    ctx.constraints.max_indexes = k;
    ctx.constraints.max_storage_bytes = storage;
  }

  CostService Service(int64_t budget) const {
    return CostService(bundle.optimizer.get(), &bundle.workload,
                       &bundle.candidates.indexes, budget);
  }

  std::vector<int> AllQueries() const {
    std::vector<int> ids(static_cast<size_t>(bundle.workload.num_queries()));
    std::iota(ids.begin(), ids.end(), 0);
    return ids;
  }
  std::vector<int> AllCandidates() const {
    std::vector<int> ids(static_cast<size_t>(bundle.candidates.size()));
    std::iota(ids.begin(), ids.end(), 0);
    return ids;
  }
};

TEST(GreedyEnumerate, RespectsCardinalityConstraint) {
  GreedyFixture f("tpch", /*k=*/2);
  CostService service = f.Service(10000);
  Config best = GreedyEnumerate(f.ctx, service, f.AllQueries(),
                                f.AllCandidates(), service.EmptyConfig(),
                                AllowAllWhatIf());
  EXPECT_LE(best.count(), 2u);
}

TEST(GreedyEnumerate, NeverExceedsBudget) {
  for (int64_t budget : {0, 1, 7, 50}) {
    GreedyFixture f("tpch");
    CostService service = f.Service(budget);
    GreedyEnumerate(f.ctx, service, f.AllQueries(), f.AllCandidates(),
                    service.EmptyConfig(), AllowAllWhatIf());
    EXPECT_LE(service.calls_made(), budget);
  }
}

TEST(GreedyEnumerate, ZeroBudgetFallsBackToDerivedOnly) {
  GreedyFixture f("tpch");
  CostService service = f.Service(0);
  Config best = GreedyEnumerate(f.ctx, service, f.AllQueries(),
                                f.AllCandidates(), service.EmptyConfig(),
                                AllowAllWhatIf());
  // Nothing is known, all derived costs equal the base: no index can look
  // better than the empty configuration.
  EXPECT_TRUE(best.empty());
  EXPECT_EQ(service.calls_made(), 0);
}

TEST(GreedyEnumerate, StorageConstraintFiltersLargeIndexes) {
  // Allow only ~the smallest candidate's worth of storage.
  GreedyFixture unconstrained("tpch", 5, 0.0);
  double min_size = 1e300;
  const Database& db = *unconstrained.bundle.workload.database;
  for (const Index& ix : unconstrained.bundle.candidates.indexes) {
    min_size = std::min(min_size, ix.SizeBytes(db));
  }
  GreedyFixture tight("tpch", 5, min_size * 1.01);
  CostService service = tight.Service(5000);
  Config best = GreedyEnumerate(tight.ctx, service, tight.AllQueries(),
                                tight.AllCandidates(),
                                service.EmptyConfig(), AllowAllWhatIf());
  double used = 0.0;
  for (size_t pos : best.ToIndices()) {
    used += tight.bundle.candidates.indexes[pos].SizeBytes(db);
  }
  EXPECT_LE(used, min_size * 1.01);
}

TEST(GreedyEnumerate, MoreStorageNeverHurts) {
  const Database& db = *LoadBundle("tpch").workload.database;
  double total_db = db.TotalSizeBytes();
  double small_storage = 0.1 * total_db;
  double large_storage = 3.0 * total_db;
  double improvements[2];
  int i = 0;
  for (double storage : {small_storage, large_storage}) {
    GreedyFixture f("tpch", 10, storage);
    CostService service = f.Service(2000);
    Config best = GreedyEnumerate(f.ctx, service, f.AllQueries(),
                                  f.AllCandidates(), service.EmptyConfig(),
                                  AllowAllWhatIf());
    improvements[i++] = service.TrueImprovement(best);
  }
  EXPECT_LE(improvements[0], improvements[1] + 1e-9);
}

TEST(GreedyTuner, ImprovementGrowsWithBudget) {
  const WorkloadBundle& bundle = LoadBundle("tpcds");
  double last = -1.0;
  for (int64_t budget : {200, 2000, 20000}) {
    RunSpec spec;
    spec.workload = "tpcds";
    spec.algorithm = "vanilla-greedy";
    spec.budget = budget;
    spec.max_indexes = 10;
    double improvement = RunOnce(bundle, spec).true_improvement;
    EXPECT_GE(improvement, last - 1e-9) << "budget " << budget;
    last = improvement;
  }
  EXPECT_GT(last, 10.0);  // with ample budget greedy finds real indexes
}

TEST(TwoPhaseGreedy, BeatsVanillaUnderSmallBudget) {
  // The motivating observation of Section 4.2: FCFS vanilla greedy starves
  // on large workloads while two-phase makes progress.
  const WorkloadBundle& bundle = LoadBundle("tpcds");
  RunSpec spec;
  spec.workload = "tpcds";
  spec.budget = 1000;
  spec.max_indexes = 10;
  spec.algorithm = "vanilla-greedy";
  double vanilla = RunOnce(bundle, spec).true_improvement;
  spec.algorithm = "two-phase-greedy";
  double two_phase = RunOnce(bundle, spec).true_improvement;
  EXPECT_GT(two_phase, vanilla);
}

TEST(AutoAdminGreedy, SpendsWhatIfOnlyOnAtomicConfigurations) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  TuningContext ctx;
  ctx.workload = &bundle.workload;
  ctx.candidates = &bundle.candidates;
  ctx.constraints.max_indexes = 5;
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 500);
  AutoAdminGreedyTuner tuner(ctx);
  tuner.Tune(service);
  for (const LayoutEntry& entry : service.layout()) {
    EXPECT_LE(entry.config.count(), 1u)
        << "AutoAdmin variant issued a what-if call on a non-atomic "
           "configuration";
  }
}

TEST(GreedyVariants, AllRespectBudgetOnEveryWorkload) {
  for (const char* workload : {"toy", "tpch", "job"}) {
    for (const char* algo :
         {"vanilla-greedy", "two-phase-greedy", "autoadmin-greedy"}) {
      const WorkloadBundle& bundle = LoadBundle(workload);
      RunSpec spec;
      spec.workload = workload;
      spec.algorithm = algo;
      spec.budget = 120;
      spec.max_indexes = 5;
      RunOutcome outcome = RunOnce(bundle, spec);
      EXPECT_LE(outcome.calls_used, spec.budget)
          << workload << "/" << algo;
      EXPECT_LE(outcome.config_size, 5u) << workload << "/" << algo;
    }
  }
}

/// One pinned line: the run's cell, what-if calls, recommended positions,
/// derived improvement and every CostEngineStats counter (all but the
/// executor's wall clock), doubles at %.17g so they pin bit for bit.
std::string PinnedLine(const char* cell, const RunOutcome& o) {
  std::string positions;
  for (size_t pos : o.config_positions) {
    if (!positions.empty()) positions += ",";
    positions += std::to_string(pos);
  }
  const CostEngineStats& s = o.engine;
  char line[1024];
  std::snprintf(
      line, sizeof(line),
      "%s %lld {%s} %.17g | hits=%lld batched=%lld derived=%lld delta=%lld "
      "posting_free=%lld walks=%lld entries=%lld scanned=%lld pruned=%lld "
      "lb=%lld sim=%.17g "
      "degraded=%lld faults=%lld/%lld/%lld retries=%lld "
      "governor=%lld/%lld/%lld stop=%d@%lld\n",
      cell, static_cast<long long>(o.calls_used), positions.c_str(),
      o.derived_improvement, static_cast<long long>(s.cache_hits),
      static_cast<long long>(s.batched_cells),
      static_cast<long long>(s.derived_lookups),
      static_cast<long long>(s.delta_lookups),
      static_cast<long long>(s.delta_posting_free),
      static_cast<long long>(s.derived_table_walks),
      static_cast<long long>(s.index_entries),
      static_cast<long long>(s.index_scanned_entries),
      static_cast<long long>(s.index_pruned_entries),
      static_cast<long long>(s.lower_bound_lookups),
      s.simulated_whatif_seconds, static_cast<long long>(s.degraded_cells),
      static_cast<long long>(s.fault_transient_errors),
      static_cast<long long>(s.fault_sticky_failures),
      static_cast<long long>(s.fault_timeouts),
      static_cast<long long>(s.retry_attempts),
      static_cast<long long>(s.governor_skipped_calls),
      static_cast<long long>(s.governor_banked_calls),
      static_cast<long long>(s.governor_reallocated_calls),
      s.governor_stop_round, static_cast<long long>(s.governor_stop_calls));
  return line;
}

TEST(Greedy, VariantsMatchPinnedResults) {
  // {vanilla, two-phase, autoadmin, dta} x {plain, early-stop, realloc,
  // fault 0.1} on toy and tpch at a small budget and 5000, each with and
  // without a binding storage limit; Real-M only at 5000 without a limit.
  // K = 10, seed 1. Captured before the argmax sweep priced posting-free
  // extensions in one step: that shortcut must not move a what-if call, a
  // recommended index or a derived-cost bit. The realloc rows' lookup and
  // governor counters were re-pinned when the governor stopped being
  // quoted after the budget is spent, and every row's delta= when the
  // one-step extensions stopped being counted as probes (they count in
  // posting_free= instead); calls, indexes and improvements did not move.
  const std::string pinned = R"(
toy B20 plain vanilla-greedy 20 {0,6} 79.130835181127139 | hits=0 batched=0 derived=12 delta=22 posting_free=0 walks=0 entries=20 scanned=13 pruned=103 lb=0 sim=6.6000000000000014 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 plain two-phase-greedy 20 {0,6} 37.484617522937569 | hits=3 batched=0 derived=14 delta=9 posting_free=0 walks=0 entries=20 scanned=44 pruned=81 lb=0 sim=6.799999999999998 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 plain autoadmin-greedy 14 {6,7} 59.946549448262857 | hits=3 batched=0 derived=14 delta=13 posting_free=0 walks=0 entries=14 scanned=17 pruned=78 lb=0 sim=4.6400000000000015 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 plain dta 20 {0,6,7} 70.046700143705252 | hits=30 batched=0 derived=29 delta=24 posting_free=4 walks=0 entries=20 scanned=111 pruned=194 lb=0 sim=6.4800000000000022 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 early-stop vanilla-greedy 20 {0,6} 79.130835181127139 | hits=0 batched=0 derived=12 delta=22 posting_free=0 walks=0 entries=20 scanned=13 pruned=103 lb=0 sim=6.6000000000000014 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 early-stop two-phase-greedy 20 {0,6} 37.484617522937569 | hits=3 batched=0 derived=14 delta=9 posting_free=0 walks=0 entries=20 scanned=44 pruned=81 lb=0 sim=6.799999999999998 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 early-stop autoadmin-greedy 14 {6,7} 59.946549448262857 | hits=3 batched=0 derived=14 delta=13 posting_free=0 walks=0 entries=14 scanned=17 pruned=78 lb=0 sim=4.6400000000000015 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 early-stop dta 20 {0,6,7} 70.046700143705252 | hits=30 batched=0 derived=29 delta=24 posting_free=4 walks=0 entries=20 scanned=111 pruned=194 lb=0 sim=6.4800000000000022 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 realloc vanilla-greedy 20 {0,6,7} 80.14685083914766 | hits=0 batched=0 derived=58 delta=10 posting_free=0 walks=0 entries=20 scanned=370 pruned=358 lb=84 sim=6.5800000000000018 degraded=0 faults=0/0/0 retries=0 governor=22/20/2 stop=-1@-1
toy B20 realloc two-phase-greedy 19 {0,6,7} 80.14685083914766 | hits=6 batched=0 derived=59 delta=0 posting_free=0 walks=0 entries=19 scanned=327 pruned=308 lb=78 sim=6.2600000000000025 degraded=0 faults=0/0/0 retries=0 governor=20/10/10 stop=-1@-1
toy B20 realloc autoadmin-greedy 14 {6,7} 59.946549448262857 | hits=3 batched=0 derived=28 delta=13 posting_free=0 walks=0 entries=14 scanned=74 pruned=107 lb=28 sim=4.6400000000000015 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 realloc dta 20 {0,6,7} 80.14685083914766 | hits=55 batched=0 derived=100 delta=50 posting_free=9 walks=0 entries=20 scanned=476 pruned=597 lb=90 sim=6.5800000000000001 degraded=0 faults=0/0/0 retries=0 governor=25/19/6 stop=-1@-1
toy B20 fault vanilla-greedy 20 {0,6} 79.130835181127139 | hits=0 batched=0 derived=12 delta=22 posting_free=0 walks=0 entries=20 scanned=13 pruned=103 lb=0 sim=7.740000000000002 degraded=0 faults=2/0/0 retries=2 governor=0/0/0 stop=-1@-1
toy B20 fault two-phase-greedy 20 {0,6} 37.484617522937569 | hits=3 batched=0 derived=14 delta=9 posting_free=0 walks=0 entries=20 scanned=44 pruned=81 lb=0 sim=7.3899999999999988 degraded=0 faults=1/0/0 retries=1 governor=0/0/0 stop=-1@-1
toy B20 fault autoadmin-greedy 14 {6,7} 59.946549448262857 | hits=3 batched=0 derived=14 delta=13 posting_free=0 walks=0 entries=14 scanned=17 pruned=78 lb=0 sim=5.2100000000000009 degraded=0 faults=1/0/0 retries=1 governor=0/0/0 stop=-1@-1
toy B20 fault dta 20 {0,6,7} 70.046700143705252 | hits=30 batched=0 derived=29 delta=24 posting_free=4 walks=0 entries=20 scanned=111 pruned=194 lb=0 sim=9.9000000000000021 degraded=0 faults=6/0/0 retries=6 governor=0/0/0 stop=-1@-1
toy B20 limited plain vanilla-greedy 20 {0,6} 79.130835181127139 | hits=0 batched=0 derived=12 delta=4 posting_free=0 walks=0 entries=20 scanned=12 pruned=84 lb=0 sim=6.6000000000000014 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 limited plain two-phase-greedy 20 {0,7} 52.762384011652472 | hits=6 batched=0 derived=18 delta=5 posting_free=0 walks=0 entries=20 scanned=58 pruned=101 lb=0 sim=6.6400000000000015 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 limited plain autoadmin-greedy 14 {6} 58.930533790242357 | hits=3 batched=0 derived=12 delta=8 posting_free=0 walks=0 entries=14 scanned=15 pruned=61 lb=0 sim=4.6400000000000015 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 limited plain dta 20 {0,6} 79.130835181127139 | hits=28 batched=0 derived=26 delta=10 posting_free=4 walks=0 entries=20 scanned=88 pruned=140 lb=0 sim=6.5200000000000014 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 limited early-stop vanilla-greedy 20 {0,6} 79.130835181127139 | hits=0 batched=0 derived=12 delta=4 posting_free=0 walks=0 entries=20 scanned=12 pruned=84 lb=0 sim=6.6000000000000014 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 limited early-stop two-phase-greedy 20 {0,7} 52.762384011652472 | hits=6 batched=0 derived=18 delta=5 posting_free=0 walks=0 entries=20 scanned=58 pruned=101 lb=0 sim=6.6400000000000015 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 limited early-stop autoadmin-greedy 14 {6} 58.930533790242357 | hits=3 batched=0 derived=12 delta=8 posting_free=0 walks=0 entries=14 scanned=15 pruned=61 lb=0 sim=4.6400000000000015 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 limited early-stop dta 20 {0,6} 79.130835181127139 | hits=28 batched=0 derived=26 delta=10 posting_free=4 walks=0 entries=20 scanned=88 pruned=140 lb=0 sim=6.5200000000000014 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 limited realloc vanilla-greedy 18 {0,6} 79.130835181127139 | hits=0 batched=0 derived=36 delta=0 posting_free=0 walks=0 entries=18 scanned=172 pruned=166 lb=48 sim=5.9400000000000013 degraded=0 faults=0/0/0 retries=0 governor=6/6/0 stop=-1@-1
toy B20 limited realloc two-phase-greedy 17 {0,6} 79.130835181127139 | hits=6 batched=0 derived=43 delta=0 posting_free=0 walks=0 entries=17 scanned=184 pruned=184 lb=50 sim=5.6200000000000019 degraded=0 faults=0/0/0 retries=0 governor=8/6/2 stop=-1@-1
toy B20 limited realloc autoadmin-greedy 14 {6} 58.930533790242357 | hits=3 batched=0 derived=26 delta=8 posting_free=0 walks=0 entries=14 scanned=72 pruned=90 lb=28 sim=4.6400000000000015 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B20 limited realloc dta 17 {0,6} 79.130835181127139 | hits=53 batched=0 derived=80 delta=11 posting_free=6 walks=0 entries=17 scanned=352 pruned=407 lb=68 sim=5.6199999999999992 degraded=0 faults=0/0/0 retries=0 governor=17/15/2 stop=-1@-1
toy B20 limited fault vanilla-greedy 20 {0,6} 79.130835181127139 | hits=0 batched=0 derived=12 delta=4 posting_free=0 walks=0 entries=20 scanned=12 pruned=84 lb=0 sim=7.740000000000002 degraded=0 faults=2/0/0 retries=2 governor=0/0/0 stop=-1@-1
toy B20 limited fault two-phase-greedy 20 {0,7} 52.762384011652472 | hits=6 batched=0 derived=18 delta=5 posting_free=0 walks=0 entries=20 scanned=58 pruned=101 lb=0 sim=7.7800000000000011 degraded=0 faults=2/0/0 retries=2 governor=0/0/0 stop=-1@-1
toy B20 limited fault autoadmin-greedy 14 {6} 58.930533790242357 | hits=3 batched=0 derived=12 delta=8 posting_free=0 walks=0 entries=14 scanned=15 pruned=61 lb=0 sim=5.2100000000000009 degraded=0 faults=1/0/0 retries=1 governor=0/0/0 stop=-1@-1
toy B20 limited fault dta 20 {0,6} 79.130835181127139 | hits=28 batched=0 derived=26 delta=10 posting_free=4 walks=0 entries=20 scanned=88 pruned=140 lb=0 sim=9.9400000000000013 degraded=0 faults=6/0/0 retries=6 governor=0/0/0 stop=-1@-1
toy B5000 plain vanilla-greedy 52 {0,6,7} 80.14685083914766 | hits=0 batched=0 derived=16 delta=0 posting_free=0 walks=0 entries=52 scanned=16 pruned=212 lb=0 sim=17.160000000000004 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 plain two-phase-greedy 37 {0,6,7} 80.14685083914766 | hits=8 batched=0 derived=20 delta=0 posting_free=0 walks=0 entries=37 scanned=90 pruned=194 lb=0 sim=12.260000000000002 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 plain autoadmin-greedy 14 {6,7} 59.946549448262857 | hits=3 batched=0 derived=14 delta=13 posting_free=0 walks=0 entries=14 scanned=17 pruned=78 lb=0 sim=4.6400000000000015 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 plain dta 41 {0,6,7} 80.14685083914766 | hits=12 batched=0 derived=18 delta=0 posting_free=0 walks=0 entries=41 scanned=63 pruned=199 lb=0 sim=13.56 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 early-stop vanilla-greedy 52 {0,6,7} 80.14685083914766 | hits=0 batched=0 derived=16 delta=0 posting_free=0 walks=0 entries=52 scanned=16 pruned=212 lb=0 sim=17.160000000000004 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 early-stop two-phase-greedy 37 {0,6,7} 80.14685083914766 | hits=8 batched=0 derived=20 delta=0 posting_free=0 walks=0 entries=37 scanned=90 pruned=194 lb=0 sim=12.260000000000002 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 early-stop autoadmin-greedy 14 {6,7} 59.946549448262857 | hits=3 batched=0 derived=14 delta=13 posting_free=0 walks=0 entries=14 scanned=17 pruned=78 lb=0 sim=4.6400000000000015 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 early-stop dta 41 {0,6,7} 80.14685083914766 | hits=12 batched=0 derived=18 delta=0 posting_free=0 walks=0 entries=41 scanned=63 pruned=199 lb=0 sim=13.56 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 realloc vanilla-greedy 25 {0,6,7} 80.14685083914766 | hits=0 batched=0 derived=68 delta=0 posting_free=0 walks=0 entries=25 scanned=490 pruned=453 lb=104 sim=8.1800000000000033 degraded=0 faults=0/0/0 retries=0 governor=27/27/0 stop=-1@-1
toy B5000 realloc two-phase-greedy 19 {0,6,7} 80.14685083914766 | hits=6 batched=0 derived=59 delta=0 posting_free=0 walks=0 entries=19 scanned=327 pruned=308 lb=78 sim=6.2600000000000025 degraded=0 faults=0/0/0 retries=0 governor=20/20/0 stop=-1@-1
toy B5000 realloc autoadmin-greedy 14 {6,7} 59.946549448262857 | hits=3 batched=0 derived=28 delta=13 posting_free=0 walks=0 entries=14 scanned=74 pruned=107 lb=28 sim=4.6400000000000015 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 realloc dta 20 {0,6,7} 80.14685083914766 | hits=8 batched=0 derived=63 delta=0 posting_free=0 walks=0 entries=20 scanned=386 pruned=344 lb=90 sim=6.580000000000001 degraded=0 faults=0/0/0 retries=0 governor=25/25/0 stop=-1@-1
toy B5000 fault vanilla-greedy 52 {0,6,7} 80.14685083914766 | hits=0 batched=0 derived=16 delta=0 posting_free=0 walks=0 entries=52 scanned=16 pruned=212 lb=0 sim=20.620000000000005 degraded=0 faults=6/0/0 retries=6 governor=0/0/0 stop=-1@-1
toy B5000 fault two-phase-greedy 37 {0,6,7} 80.14685083914766 | hits=8 batched=0 derived=20 delta=0 posting_free=0 walks=0 entries=37 scanned=90 pruned=194 lb=0 sim=16.270000000000003 degraded=0 faults=7/0/0 retries=7 governor=0/0/0 stop=-1@-1
toy B5000 fault autoadmin-greedy 14 {6,7} 59.946549448262857 | hits=3 batched=0 derived=14 delta=13 posting_free=0 walks=0 entries=14 scanned=17 pruned=78 lb=0 sim=5.2100000000000009 degraded=0 faults=1/0/0 retries=1 governor=0/0/0 stop=-1@-1
toy B5000 fault dta 41 {0,6,7} 80.14685083914766 | hits=12 batched=0 derived=18 delta=0 posting_free=0 walks=0 entries=41 scanned=63 pruned=199 lb=0 sim=18.16 degraded=0 faults=8/0/0 retries=8 governor=0/0/0 stop=-1@-1
toy B5000 limited plain vanilla-greedy 24 {0,6} 79.130835181127139 | hits=0 batched=0 derived=12 delta=0 posting_free=0 walks=0 entries=24 scanned=12 pruned=92 lb=0 sim=7.9200000000000017 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 limited plain two-phase-greedy 25 {0,6} 79.130835181127139 | hits=6 batched=0 derived=18 delta=0 posting_free=0 walks=0 entries=25 scanned=59 pruned=121 lb=0 sim=8.240000000000002 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 limited plain autoadmin-greedy 14 {6} 58.930533790242357 | hits=3 batched=0 derived=12 delta=8 posting_free=0 walks=0 entries=14 scanned=15 pruned=61 lb=0 sim=4.6400000000000015 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 limited plain dta 26 {0,6} 79.130835181127139 | hits=9 batched=0 derived=16 delta=0 posting_free=0 walks=0 entries=26 scanned=46 pruned=113 lb=0 sim=8.5600000000000005 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 limited early-stop vanilla-greedy 24 {0,6} 79.130835181127139 | hits=0 batched=0 derived=12 delta=0 posting_free=0 walks=0 entries=24 scanned=12 pruned=92 lb=0 sim=7.9200000000000017 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 limited early-stop two-phase-greedy 25 {0,6} 79.130835181127139 | hits=6 batched=0 derived=18 delta=0 posting_free=0 walks=0 entries=25 scanned=59 pruned=121 lb=0 sim=8.240000000000002 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 limited early-stop autoadmin-greedy 14 {6} 58.930533790242357 | hits=3 batched=0 derived=12 delta=8 posting_free=0 walks=0 entries=14 scanned=15 pruned=61 lb=0 sim=4.6400000000000015 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 limited early-stop dta 26 {0,6} 79.130835181127139 | hits=9 batched=0 derived=16 delta=0 posting_free=0 walks=0 entries=26 scanned=46 pruned=113 lb=0 sim=8.5600000000000005 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 limited realloc vanilla-greedy 18 {0,6} 79.130835181127139 | hits=0 batched=0 derived=36 delta=0 posting_free=0 walks=0 entries=18 scanned=172 pruned=166 lb=48 sim=5.9400000000000013 degraded=0 faults=0/0/0 retries=0 governor=6/6/0 stop=-1@-1
toy B5000 limited realloc two-phase-greedy 17 {0,6} 79.130835181127139 | hits=6 batched=0 derived=43 delta=0 posting_free=0 walks=0 entries=17 scanned=184 pruned=184 lb=50 sim=5.6200000000000019 degraded=0 faults=0/0/0 retries=0 governor=8/8/0 stop=-1@-1
toy B5000 limited realloc autoadmin-greedy 14 {6} 58.930533790242357 | hits=3 batched=0 derived=26 delta=8 posting_free=0 walks=0 entries=14 scanned=72 pruned=90 lb=28 sim=4.6400000000000015 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
toy B5000 limited realloc dta 17 {0,6} 79.130835181127139 | hits=8 batched=0 derived=43 delta=0 posting_free=0 walks=0 entries=17 scanned=202 pruned=184 lb=54 sim=5.6200000000000001 degraded=0 faults=0/0/0 retries=0 governor=10/10/0 stop=-1@-1
toy B5000 limited fault vanilla-greedy 24 {0,6} 79.130835181127139 | hits=0 batched=0 derived=12 delta=0 posting_free=0 walks=0 entries=24 scanned=12 pruned=92 lb=0 sim=9.0600000000000023 degraded=0 faults=2/0/0 retries=2 governor=0/0/0 stop=-1@-1
toy B5000 limited fault two-phase-greedy 25 {0,6} 79.130835181127139 | hits=6 batched=0 derived=18 delta=0 posting_free=0 walks=0 entries=25 scanned=59 pruned=121 lb=0 sim=11.660000000000004 degraded=0 faults=6/0/0 retries=6 governor=0/0/0 stop=-1@-1
toy B5000 limited fault autoadmin-greedy 14 {6} 58.930533790242357 | hits=3 batched=0 derived=12 delta=8 posting_free=0 walks=0 entries=14 scanned=15 pruned=61 lb=0 sim=5.2100000000000009 degraded=0 faults=1/0/0 retries=1 governor=0/0/0 stop=-1@-1
toy B5000 limited fault dta 26 {0,6} 79.130835181127139 | hits=9 batched=0 derived=16 delta=0 posting_free=0 walks=0 entries=26 scanned=46 pruned=113 lb=0 sim=11.98 degraded=0 faults=6/0/0 retries=6 governor=0/0/0 stop=-1@-1
tpch B150 plain vanilla-greedy 150 {0,2,3,4,6} 7.7739946883443878 | hits=0 batched=0 derived=264 delta=444 posting_free=684 walks=0 entries=150 scanned=114 pruned=1964 lb=0 sim=68.919999999999987 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B150 plain two-phase-greedy 150 {2,3,9,13,17,21,23,29,32} 10.044101499477854 | hits=9 batched=0 derived=449 delta=1058 posting_free=129 walks=0 entries=150 scanned=2900 pruned=1665 lb=0 sim=87.05000000000004 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B150 plain autoadmin-greedy 150 {2,13,32,37,43,48,50,61,71,74} 31.78644940871802 | hits=14 batched=0 derived=495 delta=1604 posting_free=45 walks=0 entries=150 scanned=872 pruned=2639 lb=0 sim=96.204999999999799 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B150 plain dta 150 {39,41,43,47} 3.7690789342416431 | hits=244 batched=0 derived=89 delta=54 posting_free=0 walks=0 entries=150 scanned=1014 pruned=2087 lb=0 sim=112.5 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B150 early-stop vanilla-greedy 150 {0,2,3,4,6} 7.7739946883443878 | hits=0 batched=0 derived=264 delta=444 posting_free=684 walks=0 entries=150 scanned=114 pruned=1964 lb=0 sim=68.919999999999987 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B150 early-stop two-phase-greedy 62 {2,3,9,13} 5.4935797120176382 | hits=4 batched=0 derived=224 delta=288 posting_free=161 walks=0 entries=62 scanned=356 pruned=459 lb=0 sim=37.890000000000015 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=6@62
tpch B150 early-stop autoadmin-greedy 109 {2,13,32,37,43,48,50,59} 24.352852813836535 | hits=8 batched=0 derived=404 delta=957 posting_free=58 walks=0 entries=109 scanned=643 pruned=1448 lb=0 sim=71.26499999999993 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=16@109
tpch B150 early-stop dta 47 {41,43} 3.6263411638734921 | hits=7 batched=0 derived=62 delta=60 posting_free=50 walks=0 entries=47 scanned=64 pruned=290 lb=0 sim=35.25 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=4@47
tpch B150 realloc vanilla-greedy 150 {0,2,3,4,6} 7.7739946883443878 | hits=0 batched=0 derived=414 delta=444 posting_free=684 walks=0 entries=150 scanned=587 pruned=2367 lb=300 sim=68.919999999999987 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B150 realloc two-phase-greedy 150 {2,13,29,32,37,43,48,50,51,59} 26.021177452374555 | hits=19 batched=0 derived=775 delta=2389 posting_free=58 walks=0 entries=150 scanned=7830 pruned=5835 lb=552 sim=93.999999999999801 degraded=0 faults=0/0/0 retries=0 governor=126/66/60 stop=-1@-1
tpch B150 realloc autoadmin-greedy 150 {2,13,32,37,43,48,50,61,71,74} 31.78644940871802 | hits=14 batched=0 derived=645 delta=1604 posting_free=45 walks=0 entries=150 scanned=2934 pruned=3171 lb=300 sim=96.204999999999799 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B150 realloc dta 150 {2,13,41,43,61,65,66} 13.079672071464376 | hits=21 batched=0 derived=316 delta=565 posting_free=64 walks=0 entries=150 scanned=8789 pruned=6594 lb=476 sim=92.654999999999845 degraded=0 faults=0/0/0 retries=0 governor=88/6/82 stop=-1@-1
tpch B150 fault vanilla-greedy 150 {0,2,3,4,6} 7.7739946883443878 | hits=0 batched=0 derived=264 delta=444 posting_free=684 walks=0 entries=150 scanned=114 pruned=1964 lb=0 sim=81.049999999999997 degraded=0 faults=16/0/0 retries=16 governor=0/0/0 stop=-1@-1
tpch B150 fault two-phase-greedy 150 {2,3,9,13,17,21,23,29,32} 10.044101499477854 | hits=9 batched=0 derived=449 delta=1058 posting_free=129 walks=0 entries=150 scanned=2900 pruned=1665 lb=0 sim=105.42999999999996 degraded=0 faults=22/0/0 retries=22 governor=0/0/0 stop=-1@-1
tpch B150 fault autoadmin-greedy 150 {2,13,32,37,43,48,50,61,71,74} 31.78644940871802 | hits=14 batched=0 derived=495 delta=1604 posting_free=45 walks=0 entries=150 scanned=872 pruned=2639 lb=0 sim=115.68999999999974 degraded=0 faults=22/0/0 retries=22 governor=0/0/0 stop=-1@-1
tpch B150 fault dta 150 {39,41,43,47} 3.7690789342416431 | hits=244 batched=0 derived=89 delta=54 posting_free=0 walks=0 entries=150 scanned=1014 pruned=2087 lb=0 sim=133.75 degraded=0 faults=21/0/0 retries=21 governor=0/0/0 stop=-1@-1
tpch B150 limited plain vanilla-greedy 150 {3,4,6,7,9} 0.39143690743193016 | hits=0 batched=0 derived=264 delta=444 posting_free=349 walks=0 entries=150 scanned=176 pruned=1906 lb=0 sim=68.919999999999987 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B150 limited plain two-phase-greedy 150 {3,9,13,17,21,23,47} 1.0892170895507203 | hits=17 batched=0 derived=383 delta=695 posting_free=58 walks=0 entries=150 scanned=1581 pruned=1538 lb=0 sim=99.130000000000081 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B150 limited plain autoadmin-greedy 150 {41,82,107} 2.3745927505298359 | hits=36 batched=0 derived=215 delta=476 posting_free=14 walks=0 entries=150 scanned=502 pruned=944 lb=0 sim=90.72000000000007 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B150 limited plain dta 150 {17,21,47,62} 1.7066094556066225 | hits=13 batched=0 derived=61 delta=23 posting_free=4 walks=0 entries=150 scanned=347 pruned=768 lb=0 sim=110.41999999999983 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B150 limited early-stop vanilla-greedy 150 {3,4,6,7,9} 0.39143690743193016 | hits=0 batched=0 derived=264 delta=444 posting_free=349 walks=0 entries=150 scanned=176 pruned=1906 lb=0 sim=68.919999999999987 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B150 limited early-stop two-phase-greedy 53 {3,9,13} 0.93991534716354463 | hits=6 batched=0 derived=179 delta=189 posting_free=105 walks=0 entries=53 scanned=146 pruned=376 lb=0 sim=34.184999999999995 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=5@53
tpch B150 limited early-stop autoadmin-greedy 150 {41,82,107} 2.3745927505298359 | hits=36 batched=0 derived=215 delta=476 posting_free=14 walks=0 entries=150 scanned=502 pruned=944 lb=0 sim=90.72000000000007 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B150 limited early-stop dta 53 {17,21,41,47} 0.7628436015129636 | hits=23 batched=0 derived=72 delta=97 posting_free=35 walks=0 entries=53 scanned=116 pruned=451 lb=0 sim=39.75 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=6@53
tpch B150 limited realloc vanilla-greedy 150 {3,4,6,7,9} 0.39143690743193016 | hits=0 batched=0 derived=414 delta=444 posting_free=349 walks=0 entries=150 scanned=673 pruned=2285 lb=300 sim=68.919999999999987 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B150 limited realloc two-phase-greedy 150 {41,47,82} 2.3919267044654524 | hits=37 batched=0 derived=468 delta=380 posting_free=19 walks=0 entries=150 scanned=4148 pruned=2996 lb=504 sim=91.435000000000002 degraded=0 faults=0/0/0 retries=0 governor=102/41/61 stop=-1@-1
tpch B150 limited realloc autoadmin-greedy 150 {41,82,107} 2.3745927505298359 | hits=36 batched=0 derived=365 delta=476 posting_free=14 walks=0 entries=150 scanned=2051 pruned=1317 lb=300 sim=90.72000000000007 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B150 limited realloc dta 150 {41} 2.9860417019552776 | hits=78 batched=0 derived=287 delta=60 posting_free=10 walks=0 entries=150 scanned=3272 pruned=2235 lb=372 sim=92.42499999999994 degraded=0 faults=0/0/0 retries=0 governor=36/0/36 stop=-1@-1
tpch B150 limited fault vanilla-greedy 150 {3,4,6,7,9} 0.39143690743193016 | hits=0 batched=0 derived=264 delta=444 posting_free=349 walks=0 entries=150 scanned=176 pruned=1906 lb=0 sim=82.864999999999995 degraded=0 faults=18/0/0 retries=18 governor=0/0/0 stop=-1@-1
tpch B150 limited fault two-phase-greedy 150 {3,9,13,17,21,23,47} 1.0892170895507203 | hits=17 batched=0 derived=383 delta=695 posting_free=58 walks=0 entries=150 scanned=1581 pruned=1538 lb=0 sim=120.13000000000007 degraded=0 faults=23/0/0 retries=23 governor=0/0/0 stop=-1@-1
tpch B150 limited fault autoadmin-greedy 150 {41,82,107} 2.3745927505298359 | hits=36 batched=0 derived=215 delta=476 posting_free=14 walks=0 entries=150 scanned=502 pruned=944 lb=0 sim=110.155 degraded=0 faults=22/0/0 retries=22 governor=0/0/0 stop=-1@-1
tpch B150 limited fault dta 150 {17,21,47,62} 1.7066094556066225 | hits=13 batched=0 derived=61 delta=23 posting_free=4 walks=0 entries=150 scanned=347 pruned=768 lb=0 sim=137.59999999999982 degraded=0 faults=27/0/0 retries=27 governor=0/0/0 stop=-1@-1
tpch B5000 plain vanilla-greedy 5000 {2,50,59,62,71,74,76,80,99,113} 57.187459943133121 | hits=0 batched=0 derived=462 delta=20630 posting_free=0 walks=0 entries=5000 scanned=8602 pruned=125286 lb=0 sim=2294.284999999963 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B5000 plain two-phase-greedy 5000 {2,29,50,59,71,76,80,99,110,113} 58.481177348439893 | hits=109 batched=0 derived=553 delta=6629 posting_free=0 walks=0 entries=5000 scanned=38306 pruned=92799 lb=0 sim=2451.6899999999669 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B5000 plain autoadmin-greedy 696 {2,32,50,59,71,76,80,99,110,113} 55.623196772155062 | hits=27 batched=0 derived=506 delta=3583 posting_free=0 walks=0 entries=696 scanned=2004 pruned=15977 lb=0 sim=342.69500000000079 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B5000 plain dta 5000 {2,13,27,32,41,50,61,71,96,99} 33.242934927657487 | hits=641 batched=0 derived=229 delta=3926 posting_free=0 walks=0 entries=5000 scanned=56235 pruned=81973 lb=0 sim=2835.8649999999889 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B5000 early-stop vanilla-greedy 5000 {2,50,59,62,71,74,76,80,99,113} 57.187459943133121 | hits=0 batched=0 derived=462 delta=20630 posting_free=0 walks=0 entries=5000 scanned=8602 pruned=125286 lb=0 sim=2294.284999999963 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B5000 early-stop two-phase-greedy 2136 {2,41,50,59,71,76,80,99,110,113} 56.423010146772079 | hits=109 batched=0 derived=553 delta=9493 posting_free=0 walks=0 entries=2136 scanned=40477 pruned=35974 lb=0 sim=1141.16499999998 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=93@2136
tpch B5000 early-stop autoadmin-greedy 696 {2,32,50,59,71,76,80,99,110,113} 55.623196772155062 | hits=27 batched=0 derived=506 delta=3583 posting_free=0 walks=0 entries=696 scanned=2004 pruned=15977 lb=0 sim=342.69500000000079 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B5000 early-stop dta 1727 {2,13,39,61,62,65,66,94,96,99} 17.035479472536906 | hits=50 batched=0 derived=104 delta=904 posting_free=0 walks=0 entries=1727 scanned=5165 pruned=19508 lb=0 sim=949.25000000000796 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=28@1727
tpch B5000 realloc vanilla-greedy 4595 {2,27,50,59,71,76,80,99,110,113} 60.605519200410974 | hits=0 batched=0 derived=26092 delta=0 posting_free=0 walks=0 entries=4595 scanned=4296617 pruned=3306921 lb=51260 sim=2506.5900000000202 degraded=0 faults=0/0/0 retries=0 governor=21035/19183/1852 stop=-1@-1
tpch B5000 realloc two-phase-greedy 1984 {2,29,50,59,71,76,80,99,110,113} 60.486072924727786 | hits=78 batched=0 derived=9685 delta=0 posting_free=0 walks=0 entries=1984 scanned=723760 pruned=464785 lb=18306 sim=1091.1550000000054 degraded=0 faults=0/0/0 retries=0 governor=7169/6667/502 stop=-1@-1
tpch B5000 realloc autoadmin-greedy 696 {2,32,50,59,71,76,80,99,110,113} 55.623196772155062 | hits=27 batched=0 derived=1202 delta=3583 posting_free=0 walks=0 entries=696 scanned=17340 pruned=22919 lb=1392 sim=342.69500000000079 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B5000 realloc dta 5000 {2,27,49,50,61,71,78,99,113,117} 45.766335665646395 | hits=858 batched=0 derived=14075 delta=1109 posting_free=0 walks=0 entries=5000 scanned=4475977 pruned=2129803 lb=27410 sim=3218.8200000001043 degraded=0 faults=0/0/0 retries=0 governor=8705/5491/3214 stop=-1@-1
tpch B5000 fault vanilla-greedy 5000 {2,50,59,62,71,74,76,80,99,113} 57.187459943133121 | hits=0 batched=0 derived=463 delta=20629 posting_free=0 walks=0 entries=5000 scanned=8616 pruned=125449 lb=0 sim=2720.1100000000024 degraded=1 faults=574/0/0 retries=573 governor=0/0/0 stop=-1@-1
tpch B5000 fault two-phase-greedy 5000 {2,29,50,59,71,76,80,99,110,113} 58.481177348439893 | hits=109 batched=0 derived=553 delta=6629 posting_free=0 walks=0 entries=5000 scanned=38306 pruned=92799 lb=0 sim=2903.7300000000068 degraded=0 faults=584/0/0 retries=584 governor=0/0/0 stop=-1@-1
tpch B5000 fault autoadmin-greedy 696 {2,32,50,59,71,76,80,99,110,113} 55.623196772155062 | hits=27 batched=0 derived=506 delta=3583 posting_free=0 walks=0 entries=696 scanned=2004 pruned=15977 lb=0 sim=412.37000000000063 degraded=0 faults=92/0/0 retries=92 governor=0/0/0 stop=-1@-1
tpch B5000 fault dta 5000 {2,13,27,32,41,50,61,71,96,99} 33.242934927657487 | hits=641 batched=0 derived=229 delta=3926 posting_free=0 walks=0 entries=5000 scanned=56235 pruned=81973 lb=0 sim=3348.4200000000019 degraded=0 faults=595/0/0 retries=595 governor=0/0/0 stop=-1@-1
tpch B5000 limited plain vanilla-greedy 5000 {8,9,17,21,47,55,62,64,112} 4.7740477717886254 | hits=0 batched=0 derived=440 delta=38 posting_free=0 walks=0 entries=5000 scanned=3401 pruned=64289 lb=0 sim=2294.284999999963 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B5000 limited plain two-phase-greedy 2114 {8,9,17,21,41,47,55,64,112} 4.5324442719615003 | hits=80 batched=0 derived=505 delta=0 posting_free=0 walks=0 entries=2114 scanned=7645 pruned=26596 lb=0 sim=1031.0600000000024 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B5000 limited plain autoadmin-greedy 509 {41,82} 4.4637087894516592 | hits=40 batched=0 derived=173 delta=136 posting_free=0 walks=0 entries=509 scanned=533 pruned=2496 lb=0 sim=253.33000000000101 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B5000 limited plain dta 5000 {8,9,17,21,47,55,62,64,112} 4.7649078740309436 | hits=3962 batched=0 derived=759 delta=1372 posting_free=0 walks=0 entries=5000 scanned=42688 pruned=126969 lb=0 sim=2507.0050000000429 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B5000 limited early-stop vanilla-greedy 2310 {8,9,47,53,62,112} 4.7740382900879341 | hits=0 batched=0 derived=308 delta=1936 posting_free=0 walks=0 entries=2310 scanned=1723 pruned=31035 lb=0 sim=1059.974999999999 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=3@2310
tpch B5000 limited early-stop two-phase-greedy 1652 {8,9,17,21,41,47,55,64,112} 4.5324431063245356 | hits=80 batched=0 derived=505 delta=462 posting_free=0 walks=0 entries=1652 scanned=8006 pruned=25060 lb=0 sim=819.06500000000221 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=70@1652
tpch B5000 limited early-stop autoadmin-greedy 509 {41,82} 4.4637087894516592 | hits=40 batched=0 derived=173 delta=136 posting_free=0 walks=0 entries=509 scanned=533 pruned=2496 lb=0 sim=253.33000000000101 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B5000 limited early-stop dta 1547 {8,17,21,47,55,62,64} 3.9592532449771456 | hits=286 batched=0 derived=181 delta=128 posting_free=0 walks=0 entries=1547 scanned=2729 pruned=12513 lb=0 sim=898.60500000000218 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=43@1547
tpch B5000 limited realloc vanilla-greedy 1816 {9,10,47,55,62} 4.7311763689009245 | hits=0 batched=0 derived=4246 delta=0 posting_free=0 walks=0 entries=1816 scanned=270151 pruned=243059 lb=7964 sim=832.70999999999776 degraded=0 faults=0/0/0 retries=0 governor=2166/2166/0 stop=-1@-1
tpch B5000 limited realloc two-phase-greedy 609 {41,47,82} 4.48430434438486 | hits=48 batched=0 derived=1032 delta=0 posting_free=0 walks=0 entries=609 scanned=17050 pruned=12710 lb=1620 sim=298.47500000000088 degraded=0 faults=0/0/0 retries=0 governor=201/201/0 stop=-1@-1
tpch B5000 limited realloc autoadmin-greedy 509 {41,82} 4.4637087894516592 | hits=40 batched=0 derived=682 delta=136 posting_free=0 walks=0 entries=509 scanned=8826 pruned=6249 lb=1018 sim=253.33000000000101 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
tpch B5000 limited realloc dta 1242 {9,47,62} 4.7311744122960242 | hits=2027 batched=0 derived=2949 delta=0 posting_free=0 walks=0 entries=1242 scanned=105892 pruned=89938 lb=4946 sim=582.20499999999856 degraded=0 faults=0/0/0 retries=0 governor=1231/1231/0 stop=-1@-1
tpch B5000 limited fault vanilla-greedy 5000 {8,9,17,21,47,55,62,64,112} 4.7740477717886254 | hits=0 batched=0 derived=440 delta=38 posting_free=0 walks=0 entries=5000 scanned=3401 pruned=64289 lb=0 sim=2697.6750000000015 degraded=0 faults=544/0/0 retries=544 governor=0/0/0 stop=-1@-1
tpch B5000 limited fault two-phase-greedy 2114 {8,9,17,21,41,47,55,64,112} 4.5324442719615003 | hits=80 batched=0 derived=505 delta=0 posting_free=0 walks=0 entries=2114 scanned=7645 pruned=26596 lb=0 sim=1209.2349999999942 degraded=0 faults=233/0/0 retries=233 governor=0/0/0 stop=-1@-1
tpch B5000 limited fault autoadmin-greedy 509 {41,82} 4.4637087894516592 | hits=40 batched=0 derived=173 delta=136 posting_free=0 walks=0 entries=509 scanned=533 pruned=2496 lb=0 sim=299.42000000000075 degraded=0 faults=58/0/0 retries=58 governor=0/0/0 stop=-1@-1
tpch B5000 limited fault dta 5000 {8,9,17,21,47,55,62,64,112} 4.7649078740309436 | hits=3962 batched=0 derived=759 delta=1372 posting_free=0 walks=0 entries=5000 scanned=42688 pruned=126969 lb=0 sim=2951.2000000000753 degraded=0 faults=568/0/0 retries=568 governor=0/0/0 stop=-1@-1
real-m B5000 plain vanilla-greedy 5000 {3,4,6,7,8,9,12,15} 0.19247385640296377 | hits=0 batched=0 derived=5706 delta=29236 posting_free=46134 walks=0 entries=5000 scanned=1469 pruned=112407 lb=0 sim=10727.825000000001 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
real-m B5000 plain two-phase-greedy 5000 {27,33,123,126,151,162,180,304,413,427} 2.1361244255036937 | hits=145 batched=0 derived=7072 delta=315896 posting_free=11758 walks=0 entries=5000 scanned=265921 pruned=34448 lb=0 sim=11188.299999999677 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
real-m B5000 plain autoadmin-greedy 5000 {152,304,413,721,1099,1389,1837,1925,1983,2431} 16.449466124292712 | hits=230 batched=0 derived=7073 delta=241843 posting_free=3756 walks=0 entries=5000 scanned=74382 pruned=42498 lb=0 sim=10967.635000000062 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
real-m B5000 plain dta 5000 {27,162,418,1118,1334,2726,2939,3061,3135,3137} 14.408142164788075 | hits=79 batched=0 derived=714 delta=3601 posting_free=0 walks=0 entries=5000 scanned=57877 pruned=60685 lb=0 sim=12658.274999999849 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
real-m B5000 early-stop vanilla-greedy 5000 {3,4,6,7,8,9,12,15} 0.19247385640296377 | hits=0 batched=0 derived=5706 delta=29236 posting_free=46134 walks=0 entries=5000 scanned=1469 pruned=112407 lb=0 sim=10727.825000000001 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
real-m B5000 early-stop two-phase-greedy 1647 {27,28,33,78,79,104,122,126,151,162} 0.42220361825509034 | hits=57 batched=0 derived=7010 delta=108047 posting_free=13993 walks=0 entries=1647 scanned=76241 pruned=14223 lb=0 sim=3468.7200000000134 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=40@1647
real-m B5000 early-stop autoadmin-greedy 3976 {152,304,413,721,1099,1389,1659,1837,1925,1983} 15.224858957908705 | hits=170 batched=0 derived=7053 delta=209319 posting_free=4612 walks=0 entries=3976 scanned=57925 pruned=34892 lb=0 sim=8596.6949999999033 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=158@3976
real-m B5000 early-stop dta 1715 {27,162,1118,1580,1837,1838,1860,2939,3135,3137} 10.806916179996184 | hits=79 batched=0 derived=705 delta=1634 posting_free=962 walks=0 entries=1715 scanned=61135 pruned=13805 lb=0 sim=4445.6749999999838 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=32@1715
real-m B5000 realloc vanilla-greedy 5000 {3,4,6,7,8,9,12,15} 0.19247385640296377 | hits=0 batched=0 derived=10706 delta=29236 posting_free=46134 walks=0 entries=5000 scanned=40238 pruned=147558 lb=10000 sim=10727.825000000001 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
real-m B5000 realloc two-phase-greedy 5000 {27,123,126,152,162,304,413,427,721,1099} 3.7878590934646961 | hits=392 batched=0 derived=20857 delta=711704 posting_free=7414 walks=0 entries=5000 scanned=1595941 pruned=1199329 lb=27234 sim=10583.739999999727 degraded=0 faults=0/0/0 retries=0 governor=8617/5566/3051 stop=-1@-1
real-m B5000 realloc autoadmin-greedy 5000 {152,304,413,721,1099,1389,1837,1925,1983,2431} 16.449466124292712 | hits=230 batched=0 derived=12073 delta=241843 posting_free=3756 walks=0 entries=5000 scanned=298134 pruned=77956 lb=10000 sim=10967.635000000062 degraded=0 faults=0/0/0 retries=0 governor=0/0/0 stop=-1@-1
real-m B5000 realloc dta 5000 {1837,2939,3135,3179,3180,3529,3970,4046,4083,4338} 74.322554557634689 | hits=6342 batched=0 derived=40362 delta=8635 posting_free=0 walks=0 entries=5000 scanned=5118154 pruned=3864118 lb=71986 sim=11412.080000000024 degraded=0 faults=0/0/0 retries=0 governor=30993/27231/3762 stop=-1@-1
real-m B5000 fault vanilla-greedy 5000 {3,4,6,7,8,9,12,15} 0.19247385640296377 | hits=0 batched=0 derived=5706 delta=29236 posting_free=46134 walks=0 entries=5000 scanned=1469 pruned=112407 lb=0 sim=12036.655000000004 degraded=0 faults=537/0/0 retries=537 governor=0/0/0 stop=-1@-1
real-m B5000 fault two-phase-greedy 5000 {27,33,123,126,151,162,180,304,413,427} 2.1361244255036937 | hits=145 batched=0 derived=7072 delta=315896 posting_free=11758 walks=0 entries=5000 scanned=265921 pruned=34448 lb=0 sim=12556.84499999995 degraded=0 faults=550/0/0 retries=550 governor=0/0/0 stop=-1@-1
real-m B5000 fault autoadmin-greedy 5000 {152,304,413,721,1099,1389,1837,1925,1983,2431} 16.449466124292712 | hits=230 batched=0 derived=7073 delta=241843 posting_free=3756 walks=0 entries=5000 scanned=74382 pruned=42498 lb=0 sim=12346.534999999983 degraded=0 faults=558/0/0 retries=558 governor=0/0/0 stop=-1@-1
real-m B5000 fault dta 5000 {27,162,418,1118,1334,2726,2939,3061,3135,3137} 14.408142164788075 | hits=79 batched=0 derived=714 delta=3601 posting_free=0 walks=0 entries=5000 scanned=57877 pruned=60685 lb=0 sim=14256.294999999787 degraded=0 faults=563/0/0 retries=563 governor=0/0/0 stop=-1@-1
)";
  struct Grid {
    const char* workload;
    std::vector<int64_t> budgets;
    std::vector<bool> limits;
  };
  const Grid grids[] = {{"toy", {20, 5000}, {false, true}},
                        {"tpch", {150, 5000}, {false, true}},
                        {"real-m", {5000}, {false}}};
  std::string got;
  for (const Grid& grid : grids) {
    const WorkloadBundle& bundle = LoadBundle(grid.workload);
    for (int64_t budget : grid.budgets) {
      for (bool limited : grid.limits) {
        for (const char* mode : {"plain", "early-stop", "realloc", "fault"}) {
          for (const char* algo : {"vanilla-greedy", "two-phase-greedy",
                                   "autoadmin-greedy", "dta"}) {
            RunSpec spec;
            spec.workload = grid.workload;
            spec.algorithm = algo;
            spec.budget = budget;
            spec.max_indexes = 10;
            if (limited) spec.max_storage_bytes = TwoMedianIndexes(bundle);
            const std::string m = mode;
            if (m == "early-stop" || m == "realloc") {
              spec.governor.enabled = true;
              spec.governor.early_stop = m == "early-stop";
              spec.governor.skip_what_if = m == "realloc";
            } else if (m == "fault") {
              spec.faults.enabled = true;
              spec.faults.transient_rate = 0.1;
            }
            char cell[128];
            std::snprintf(cell, sizeof(cell), "%s B%lld%s %s %s",
                          grid.workload, static_cast<long long>(budget),
                          limited ? " limited" : "", mode, algo);
            got += PinnedLine(cell, RunOnce(bundle, spec));
          }
        }
      }
    }
  }
  ExpectPinnedLines(got, pinned);
}

TEST(WhatIfFilters, BehaveAsDocumented) {
  Config empty(10);
  Config small = empty.With(1);
  Config big = small.With(2).With(3);
  EXPECT_TRUE(AllowAllWhatIf().Allows(big.count(), 0));
  EXPECT_TRUE(AllowAllWhatIf().Allows(big.count(), 1'000'000'000));
  EXPECT_FALSE(DenyAllWhatIf().Allows(small.count(), 0));
  // Deny-all denies the empty configuration too: its cost then comes from
  // the derived path, as a derived lookup, not from the free base cost.
  EXPECT_FALSE(DenyAllWhatIf().Allows(empty.count(), 0));
  EXPECT_TRUE(AtomicOnlyWhatIf(1).Allows(small.count(), 0));
  EXPECT_TRUE(AtomicOnlyWhatIf(1).Allows(empty.count(), 0));
  EXPECT_FALSE(AtomicOnlyWhatIf(1).Allows(big.count(), 0));
  EXPECT_TRUE(AtomicOnlyWhatIf(3).Allows(big.count(), 0));
  // A call limit (DTA's time slice) allows calls strictly below it.
  const WhatIfFilter slice{.call_limit = 40};
  EXPECT_TRUE(slice.Allows(big.count(), 39));
  EXPECT_FALSE(slice.Allows(big.count(), 40));
  EXPECT_FALSE(slice.Allows(empty.count(), 41));
}

TEST(WhatIfFilters, DenyAllSpendsNothingAndDerivesTheStart) {
  GreedyFixture f("tpch");
  CostService service = f.Service(100);
  GreedyEnumerate(f.ctx, service, f.AllQueries(), f.AllCandidates(),
                  service.EmptyConfig(), DenyAllWhatIf());
  EXPECT_EQ(service.calls_made(), 0);
  EXPECT_EQ(service.cache_hits(), 0);
  // Nothing is cached, so no extension improves and one round runs. The
  // empty start is costed through the derived path (m lookups, not the
  // free base cost), the round's baseline takes m more, and each
  // candidate is posting-free and may not spend a call, so it is priced in
  // one step with no delta probe.
  const int64_t m = static_cast<int64_t>(f.AllQueries().size());
  const int64_t n = static_cast<int64_t>(f.AllCandidates().size());
  const CostEngineStats stats = service.EngineStats();
  EXPECT_EQ(stats.derived_lookups, 2 * m);
  EXPECT_EQ(stats.delta_lookups, 0);
  EXPECT_EQ(stats.delta_posting_free, n);
  EXPECT_EQ(stats.index_scanned_entries, 0);
}

}  // namespace
}  // namespace bati
