#ifndef BATI_TUNER_CANDIDATE_GEN_H_
#define BATI_TUNER_CANDIDATE_GEN_H_

#include <optional>
#include <vector>

#include "storage/index.h"
#include "workload/query.h"

namespace bati {

/// Merges two indexes of the same table when one's key is a prefix of the
/// other's: the merged index keeps the longer key and unions the payloads.
/// Returns nullopt when the indexes are not mergeable.
std::optional<Index> MergeIndexes(const Index& a, const Index& b);

/// The candidate-index universe for a workload, with per-query provenance.
struct CandidateSet {
  /// Deduplicated candidate indexes; positions in this vector are the
  /// universe over which Config bitsets are defined.
  std::vector<Index> indexes;
  /// For each query, the candidate positions generated from it (the
  /// I_{q} sets used by two-phase search and by the prior computation).
  std::vector<std::vector<int>> per_query;
  /// Index::SizeBytes() of each candidate, computed once at generation so
  /// storage checks never re-derive it.
  std::vector<double> size_bytes;

  int size() const { return static_cast<int>(indexes.size()); }
};

/// Candidate index generation (paper Section 2, Figure 3): extracts
/// indexable columns per query (equality/range filter columns, join columns,
/// group-by and order-by columns, with projection columns as includable
/// payload) and emits a bounded set of candidate indexes per scan, then
/// unions them across the workload.
CandidateSet GenerateCandidates(const Workload& workload);

}  // namespace bati

#endif  // BATI_TUNER_CANDIDATE_GEN_H_
