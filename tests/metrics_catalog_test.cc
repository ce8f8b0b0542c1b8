// The metric catalog in docs/OBSERVABILITY.md is complete and exact: every
// metric name the system registers is documented, and every documented
// name is registered by some run.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "harness/experiment.h"
#include "serve/daemon.h"

namespace bati {
namespace {

/// The names in the first column of the "Metric catalog" table: every
/// backquoted token, `serve.tenant.<name>.*` rows included as written.
std::set<std::string> DocumentedNames() {
  StatusOr<std::string> doc =
      ReadFileToString(std::string(BATI_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  EXPECT_TRUE(doc.ok());
  std::set<std::string> names;
  if (!doc.ok()) return names;
  const size_t start = doc->find("### Metric catalog");
  EXPECT_NE(start, std::string::npos);
  if (start == std::string::npos) return names;
  bool in_table = false;
  size_t pos = doc->find('\n', start);
  while (pos != std::string::npos && pos + 1 < doc->size()) {
    const size_t end = doc->find('\n', pos + 1);
    const std::string line = doc->substr(pos + 1, end - pos - 1);
    pos = end;
    if (line.rfind("|", 0) != 0) {
      if (in_table) break;
      continue;
    }
    in_table = true;
    const std::string first = line.substr(1, line.find('|', 1) - 1);
    for (size_t open = first.find('`'); open != std::string::npos;) {
      const size_t close = first.find('`', open + 1);
      names.insert(first.substr(open + 1, close - open - 1));
      open = first.find('`', close + 1);
    }
  }
  return names;
}

/// Adds every registered name of `snap`, with a serve tenant's name
/// replaced by `<name>`.
void Collect(const MetricsSnapshot& snap, std::set<std::string>* names) {
  auto add = [names](const std::string& name) {
    const std::string tenant = "serve.tenant.";
    if (name.rfind(tenant, 0) == 0) {
      const size_t dot = name.find('.', tenant.size());
      names->insert(tenant + "<name>" + name.substr(dot));
    } else {
      names->insert(name);
    }
  };
  for (const auto& row : snap.counters) add(row.name);
  for (const auto& row : snap.gauges) add(row.name);
  for (const auto& row : snap.histograms) add(row.name);
}

/// A serve replay under the deterministic exec signal: a tuned tenant
/// whose deploys ship and roll back, query drift whose re-tune lands on a
/// configuration other than the deployed one (an estimated decision; a
/// no-change would consult no signal), a malformed line, and a tune the
/// queue quota rejects. `max_store_rows` small enough makes every exec
/// evaluation fall back.
MetricsSnapshot ServeReplay(int64_t max_store_rows) {
  ServeOptions options;
  options.parallelism = 1;
  options.observer.window = 16;
  options.observer.stride = 4;
  options.observer.min_events = 8;
  options.observer.drift_threshold = 0.2;
  options.signal = SignalKind::kDeterministicExec;
  options.signal_options.max_store_rows = max_store_rows;
  ServeDaemon daemon(options);
  std::vector<std::string> lines = {
      R"({"type":"register","tenant":"toy","workload":"toy",)"
      R"("algorithm":"vanilla-greedy","budget":40,"tune":true})",
      R"({"type":"register","tenant":"q","workload":"toy","budget":20,)"
      R"("queue_quota":1,"tune":true})",
      R"({"type":"tune","tenant":"q"})",
      R"({"type":"drain"})",
      R"({"type":"deploy","tenant":"toy","config":"1"})",
      R"({"type":"deploy","tenant":"toy","config":"0 6 7"})",
      "not an event",
  };
  for (int i = 0; i < 24; ++i) {
    lines.push_back(R"({"type":"query","tenant":"toy","query":)" +
                    std::to_string(i < 12 ? i % 2 : 1) + "}");
  }
  lines.push_back(R"({"type":"drain"})");
  std::string out;
  for (const std::string& line : lines) daemon.ProcessLine(line, &out);
  daemon.Finish(&out);
  EXPECT_NE(out.find("\"retune\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"type\":\"error\""), std::string::npos) << out;
  return daemon.metrics().Snapshot();
}

TEST(MetricsCatalog, DocumentedNamesEqualEmittedNames) {
  std::set<std::string> emitted;
  const WorkloadBundle& bundle = LoadBundle("toy");
  for (const char* algorithm :
       {"vanilla-greedy", "two-phase-greedy", "autoadmin-greedy", "mcts",
        "dba-bandits", "no-dba", "dta", "relaxation"}) {
    RunSpec spec;
    spec.workload = "toy";
    spec.algorithm = algorithm;
    spec.budget = 40;
    spec.max_indexes = 3;
    spec.collect_metrics = true;
    const RunOutcome outcome = RunOnce(bundle, spec);
    ASSERT_TRUE(outcome.has_metrics) << algorithm;
    Collect(outcome.metrics, &emitted);
  }

  // Governed, faulted, checkpointed, then resumed from the checkpoint.
  const std::string path = testing::TempDir() + "/bati_metrics_catalog.ckpt";
  RunSpec spec;
  spec.workload = "toy";
  spec.algorithm = "two-phase-greedy";
  spec.budget = 40;
  spec.max_indexes = 3;
  spec.governor = BudgetGovernorOptions::Enabled();
  spec.faults.enabled = true;
  spec.faults.transient_rate = 0.2;
  spec.checkpoint_path = path;
  spec.collect_metrics = true;
  const RunOutcome full = RunOnce(bundle, spec);
  Collect(full.metrics, &emitted);
  RunSpec resume = spec;
  resume.checkpoint_path.clear();
  resume.resume_path = path;
  const RunOutcome resumed = RunOnce(bundle, resume);
  EXPECT_GT(resumed.engine.replayed_calls, 0);
  Collect(resumed.metrics, &emitted);
  std::remove(path.c_str());

  Collect(ServeReplay(ExecSignalOptions{}.max_store_rows), &emitted);
  Collect(ServeReplay(/*max_store_rows=*/1), &emitted);

  const std::set<std::string> documented = DocumentedNames();
  for (const std::string& name : emitted) {
    EXPECT_TRUE(documented.count(name) != 0) << "undocumented: " << name;
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(emitted.count(name) != 0) << "never emitted: " << name;
  }
}

}  // namespace
}  // namespace bati
