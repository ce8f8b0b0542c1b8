#include <algorithm>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "tuner/candidate_gen.h"
#include "workload/generators.h"

namespace bati {
namespace {

TEST(CandidateGen, ToyWorkloadMatchesFigureThreeShapes) {
  const Workload w = MakeToyWorkload();
  CandidateSet set = GenerateCandidates(w);
  ASSERT_GT(set.size(), 0);
  const Database& db = *w.database;

  // Expect a filter-based index on R keyed on the equality column `a`, and
  // join-based indexes keyed on R.b / S.c (Figure 3 of the paper).
  bool found_filter_on_a = false;
  bool found_join_on_b = false;
  bool found_join_on_c = false;
  int r = db.FindTable("R");
  int s = db.FindTable("S");
  int col_a = db.table(r).FindColumn("a");
  int col_b = db.table(r).FindColumn("b");
  int col_c = db.table(s).FindColumn("c");
  for (const Index& ix : set.indexes) {
    if (ix.table_id == r && ix.key_columns.front() == col_a) {
      found_filter_on_a = true;
    }
    if (ix.table_id == r && ix.key_columns.front() == col_b) {
      found_join_on_b = true;
    }
    if (ix.table_id == s && ix.key_columns.front() == col_c) {
      found_join_on_c = true;
    }
  }
  EXPECT_TRUE(found_filter_on_a);
  EXPECT_TRUE(found_join_on_b);
  EXPECT_TRUE(found_join_on_c);
}

TEST(CandidateGen, DeduplicatesAcrossQueries) {
  const Workload w = MakeToyWorkload();
  CandidateSet set = GenerateCandidates(w);
  for (int i = 0; i < set.size(); ++i) {
    for (int j = i + 1; j < set.size(); ++j) {
      EXPECT_FALSE(set.indexes[static_cast<size_t>(i)] ==
                   set.indexes[static_cast<size_t>(j)])
          << "duplicate candidates at " << i << "," << j;
    }
  }
}

TEST(CandidateGen, ProvenanceCoversEveryQueryWithIndexableColumns) {
  const Workload w = MakeTpch();
  CandidateSet set = GenerateCandidates(w);
  ASSERT_EQ(set.per_query.size(), w.queries.size());
  for (size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_FALSE(set.per_query[q].empty()) << w.queries[q].name;
    for (int pos : set.per_query[q]) {
      ASSERT_GE(pos, 0);
      ASSERT_LT(pos, set.size());
    }
  }
}

TEST(CandidateGen, KeyColumnCapIsRespected) {
  // At most three key columns per candidate, and the cap binds: the wide
  // filter and group-by column lists of TPC-DS reach it.
  const Workload w = MakeTpcds();
  CandidateSet set = GenerateCandidates(w);
  size_t widest = 0;
  for (const Index& ix : set.indexes) {
    EXPECT_LE(ix.key_columns.size(), 3u);
    widest = std::max(widest, ix.key_columns.size());
  }
  EXPECT_EQ(widest, 3u);
}

TEST(CandidateGen, PerScanCapLimitsUniverseSize) {
  // At most four candidates per scan of a query, and the cap binds on some
  // query.
  const Workload w = MakeTpcds();
  CandidateSet set = GenerateCandidates(w);
  bool capped = false;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const size_t cap = 4 * static_cast<size_t>(w.queries[q].num_scans());
    EXPECT_LE(set.per_query[q].size(), cap) << w.queries[q].name;
    capped = capped || set.per_query[q].size() == cap;
  }
  EXPECT_TRUE(capped);
}

TEST(CandidateGen, CandidatesReferenceOnlyAccessedTables) {
  const Workload w = MakeRealD();
  CandidateSet set = GenerateCandidates(w);
  std::set<int> accessed;
  for (const Query& q : w.queries) {
    for (const QueryScan& s : q.scans) accessed.insert(s.table_id);
  }
  for (const Index& ix : set.indexes) {
    EXPECT_TRUE(accessed.count(ix.table_id) > 0);
  }
}

TEST(CandidateGen, UniverseScaleMatchesPaperReports) {
  // "hundreds to thousands of candidate indexes" for the large workloads.
  EXPECT_GT(LoadBundle("tpcds").candidates.size(), 100);
  EXPECT_GT(LoadBundle("real-m").candidates.size(), 1000);
}

}  // namespace
}  // namespace bati
