#include <cstdio>

#include <gtest/gtest.h>

#include <algorithm>

#include "common/strings.h"
#include "harness/experiment.h"
#include "whatif/trace_io.h"

namespace bati {
namespace {

TEST(TraceIo, CsvHasHeaderAndOneRowPerCall) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 10);
  Config a = service.EmptyConfig();
  a.set(0);
  service.WhatIfCost(0, a);
  service.BeginRound();
  service.WhatIfCost(1, a.With(1));

  std::string csv = LayoutToCsv(service, bundle.workload);
  std::vector<std::string> lines = Split(csv, '\n');
  // header + 2 rows + trailing empty
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0],
            "call,query_id,query_name,config_size,config,what_if_cost,round");
  EXPECT_TRUE(lines[1].starts_with("1,0,Q1,1,0,"));
  EXPECT_TRUE(lines[2].starts_with("2,1,Q2,2,0;1,"));
  // The first call pre-dates any round; the second carries round 1.
  EXPECT_TRUE(lines[1].ends_with(",0"));
  EXPECT_TRUE(lines[2].ends_with(",1"));
}

TEST(TraceIo, CsvCostsMatchCache) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 5);
  Config a = service.EmptyConfig();
  a.set(2);
  double cost = *service.WhatIfCost(1, a);
  std::string csv = LayoutToCsv(service, bundle.workload);
  char expected[64];
  std::snprintf(expected, sizeof(expected), "%.6g", cost);
  EXPECT_NE(csv.find(expected), std::string::npos);
}

TEST(TraceIo, WriteAndReadBackFile) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 5);
  Config a = service.EmptyConfig();
  a.set(0);
  service.WhatIfCost(0, a);
  std::string path = ::testing::TempDir() + "/layout.csv";
  ASSERT_TRUE(WriteLayoutCsv(service, bundle.workload, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  EXPECT_FALSE(
      WriteLayoutCsv(service, bundle.workload, "/no/such/dir/x.csv").ok());
}

TEST(TraceIo, ResultJsonShape) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 10);
  Config c = service.EmptyConfig();
  c.set(0);
  c.set(1);
  std::string json =
      ResultToJson(service, bundle.workload, "mcts", c, 42.5);
  EXPECT_NE(json.find("\"workload\":\"toy\""), std::string::npos);
  EXPECT_NE(json.find("\"algorithm\":\"mcts\""), std::string::npos);
  EXPECT_NE(json.find("\"improvement\":42.5"), std::string::npos);
  EXPECT_NE(json.find("\"indexes\":[\""), std::string::npos);
  // engine_stats is embedded in the same (single) top-level object.
  EXPECT_NE(json.find("\"engine_stats\":{\"what_if_calls\":"),
            std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 0);
}

}  // namespace
}  // namespace bati
