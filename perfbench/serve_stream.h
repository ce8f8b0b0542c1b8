#ifndef PERFBENCH_SERVE_STREAM_H_
#define PERFBENCH_SERVE_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One tenant of the generated serve stream.
struct StreamTenant {
  std::string name;
  std::string workload;
  std::string algorithm;
  int64_t budget = 0;
  uint64_t seed = 1;
  /// Filled from the tenant's bundle before generation.
  int num_queries = 0;
  int num_candidates = 0;
};

/// Generates the JSONL lines of one serve stream from `seed`: one register
/// (with an initial tune) per tenant, `queries` phase-shifting query
/// events with periodic explicit tune and deploy events on the first
/// tenant, a drain, and finally one drop-every-index deploy per tenant.
/// Equal seeds give equal streams on every platform (the generator uses
/// its own integer RNG, not <random> distributions). README.md gives the
/// reasons for the stream's parameters.
std::vector<std::string> MakeServeStream(
    const std::vector<StreamTenant>& tenants, int64_t queries, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_STREAM_H_
