#ifndef BATI_WORKLOAD_GENERATORS_H_
#define BATI_WORKLOAD_GENERATORS_H_

#include <cstdint>

#include "workload/query.h"

namespace bati {

/// Options shared by the workload generators.
struct WorkloadOptions {
  /// Scale factor: 1.0 reproduces the paper's sizes (sf=10 for TPC-H/DS,
  /// 587 GB Real-D, 26 GB Real-M). Smaller values shrink row counts
  /// proportionally (costs scale; search behaviour is preserved).
  double scale = 1.0;
  /// Seed for the deterministic literal/value synthesis inside queries.
  uint64_t seed = 42;
};

/// TPC-H-like workload: the 8-table TPC-H schema at sf=10*scale with 22
/// simplified-but-structurally-faithful query templates (one instance per
/// template, matching the paper's protocol).
Workload MakeTpch(const WorkloadOptions& options = WorkloadOptions());

/// TPC-DS-like workload: 24-table retail schema at sf=10*scale with 99
/// query templates.
Workload MakeTpcds(const WorkloadOptions& options = WorkloadOptions());

/// Join-Order-Benchmark-like workload: 21-table IMDB schema, 33 templates
/// (one instance per template, as in the paper).
Workload MakeJob(const WorkloadOptions& options = WorkloadOptions());

/// Synthetic stand-in for the paper's Real-D: 7,912 tables, 32 queries,
/// ~15.6 joins per query, 587 GB. See DESIGN.md substitution table.
Workload MakeRealD(const WorkloadOptions& options = WorkloadOptions());

/// Synthetic stand-in for the paper's Real-M: 474 tables, 317 queries,
/// ~20.2 joins per query, 26 GB.
Workload MakeRealM(const WorkloadOptions& options = WorkloadOptions());

/// Real-D at full scale with a benchmark-sized query set: the same 7,912
/// tables / 587 GB / ~15.6 joins-per-query shape as Real-D, but 64 queries
/// from an independent seed — large WhatIfCostMany() batches for the
/// what-if benchmark. Registered as a bundle ("real-d-bench") for
/// bati_tune / bati_batch and driven by bench_whatif.
Workload MakeRealDBench(const WorkloadOptions& options = WorkloadOptions());

/// Tiny two-table workload mirroring the paper's running example (Figure 3:
/// tables R(a,b), S(c,d) and queries Q1, Q2). Used by tests and examples.
Workload MakeToyWorkload();

/// Dispatch by name: "tpch", "tpcds", "job", "real-d", "real-m",
/// "real-d-bench", "toy".
/// Returns an empty workload (no database) for unknown names.
Workload MakeWorkloadByName(const std::string& name,
                            const WorkloadOptions& options = WorkloadOptions());

}  // namespace bati

#endif  // BATI_WORKLOAD_GENERATORS_H_
