#ifndef BATI_TESTS_PINNED_RESULTS_H_
#define BATI_TESTS_PINNED_RESULTS_H_

// Helpers shared by the tests that pin whole tuning runs to values
// captured from an earlier implementation.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace bati {

/// A storage limit of roughly two median-sized candidate indexes: one that
/// binds on every bundled workload.
inline double TwoMedianIndexes(const WorkloadBundle& bundle) {
  std::vector<double> sizes;
  for (const Index& ix : bundle.candidates.indexes) {
    sizes.push_back(ix.SizeBytes(*bundle.workload.database));
  }
  std::nth_element(sizes.begin(), sizes.begin() + sizes.size() / 2,
                   sizes.end());
  return 2.2 * sizes[sizes.size() / 2];
}

/// Splits `text` into its non-empty lines.
inline std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

/// Expects `got` to hold the lines of `pinned`, one by one, and prints all
/// of `got` when the line counts differ.
inline void ExpectPinnedLines(const std::string& got,
                              const std::string& pinned) {
  const std::vector<std::string> want_lines = Lines(pinned);
  const std::vector<std::string> got_lines = Lines(got);
  ASSERT_EQ(got_lines.size(), want_lines.size()) << got;
  for (size_t i = 0; i < got_lines.size(); ++i) {
    EXPECT_EQ(got_lines[i], want_lines[i]);
  }
}

}  // namespace bati

#endif  // BATI_TESTS_PINNED_RESULTS_H_
