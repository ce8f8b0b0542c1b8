// bati_export: dump a built-in workload (schema DDL + SQL script) to files,
// so the generated benchmarks can be inspected, edited, and fed back through
// `bati_tune --schema-file ... --sql-file ...`.
//
//   bati_export --workload tpch --out /tmp/tpch

#include <cstdio>
#include <fstream>
#include <string>

#include "common/flags.h"
#include "session/bundle_registry.h"
#include "workload/loader.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--out PREFIX]\n"
               "writes PREFIX.schema.sql and PREFIX.queries.sql\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bati;
  std::string workload = "tpch";
  std::string out_prefix = "workload";
  // The same strict flag table as bati_tune/bati_batch (common/flags.h):
  // unknown or malformed flags print usage and exit 2.
  FlagParser parser;
  parser.AddString("workload", &workload);
  parser.AddString("out", &out_prefix);
  if (!parser.Parse(argc, argv)) {
    Usage(argv[0]);
    return 2;
  }
  const WorkloadBundle* bundle = BundleRegistry::Global().TryGet(workload);
  if (bundle == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
    return 1;
  }
  std::string schema_path = out_prefix + ".schema.sql";
  std::string queries_path = out_prefix + ".queries.sql";
  {
    std::ofstream out(schema_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", schema_path.c_str());
      return 1;
    }
    out << DumpSchemaDdl(*bundle->workload.database);
  }
  {
    std::ofstream out(queries_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", queries_path.c_str());
      return 1;
    }
    out << DumpWorkloadSql(bundle->workload);
  }
  std::printf("wrote %s (%d tables) and %s (%d queries)\n",
              schema_path.c_str(), bundle->workload.database->num_tables(),
              queries_path.c_str(), bundle->workload.num_queries());
  return 0;
}
