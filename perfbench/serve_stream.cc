#include "serve_stream.h"

#include <algorithm>

namespace perfbench {

namespace {

/// Every kPhase query events each tenant moves to a new hot query set, so
/// each tenant's observer sees at least one sustained shift per phase.
constexpr int64_t kPhase = 5000;
/// Share of a tenant's queries drawn from its hot set; the rest are
/// uniform over its workload.
constexpr double kHotShare = 0.9;
/// Hot-set size as a share of the tenant's queries (at least one).
constexpr double kHotFraction = 0.1;
/// The first tenant gets an explicit `tune` and an operator `deploy`
/// every kControlEvery query events.
constexpr int64_t kControlEvery = 20000;

/// SplitMix64: tiny, portable, and fully specified, so a seed names the
/// same stream everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// `k` distinct values of [0, n), ascending.
std::vector<int> Sample(Rng* rng, int n, int k) {
  std::vector<int> all(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
  for (int i = 0; i < k; ++i) {
    const size_t j =
        static_cast<size_t>(i) + rng->Below(static_cast<uint64_t>(n - i));
    std::swap(all[static_cast<size_t>(i)], all[j]);
  }
  all.resize(static_cast<size_t>(k));
  std::sort(all.begin(), all.end());
  return all;
}

std::string Positions(const std::vector<int>& positions) {
  std::string out;
  for (int p : positions) {
    if (!out.empty()) out += ' ';
    out += std::to_string(p);
  }
  return out;
}

}  // namespace

std::vector<std::string> MakeServeStream(
    const std::vector<StreamTenant>& tenants, int64_t queries, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> lines;
  for (const StreamTenant& t : tenants) {
    lines.push_back("{\"type\":\"register\",\"tenant\":\"" + t.name +
                    "\",\"workload\":\"" + t.workload +
                    "\",\"algorithm\":\"" + t.algorithm +
                    "\",\"budget\":" + std::to_string(t.budget) +
                    ",\"seed\":" + std::to_string(t.seed) +
                    ",\"queue_quota\":64,\"tune\":true}");
  }

  std::vector<std::vector<int>> hot(tenants.size());
  const StreamTenant& control = tenants.front();
  for (int64_t e = 0; e < queries; ++e) {
    if (e % kPhase == 0) {
      for (size_t i = 0; i < tenants.size(); ++i) {
        const int n = tenants[i].num_queries;
        const int k = std::max(1, static_cast<int>(n * kHotFraction));
        hot[i] = Sample(&rng, n, k);
      }
    }
    const size_t i = rng.Below(tenants.size());
    const StreamTenant& t = tenants[i];
    const int query =
        rng.Unit() < kHotShare
            ? hot[i][rng.Below(hot[i].size())]
            : static_cast<int>(rng.Below(static_cast<uint64_t>(t.num_queries)));
    lines.push_back("{\"type\":\"query\",\"tenant\":\"" + t.name +
                    "\",\"query\":" + std::to_string(query) + "}");
    if ((e + 1) % kControlEvery == 0) {
      lines.push_back("{\"type\":\"tune\",\"tenant\":\"" + control.name +
                      "\",\"seed\":" + std::to_string(rng.Below(1000000) + 1) +
                      "}");
      const int k = 1 + static_cast<int>(rng.Below(static_cast<uint64_t>(
                            std::min(3, control.num_candidates))));
      lines.push_back("{\"type\":\"deploy\",\"tenant\":\"" + control.name +
                      "\",\"config\":\"" +
                      Positions(Sample(&rng, control.num_candidates, k)) +
                      "\"}");
    }
  }

  lines.push_back("{\"type\":\"drain\"}");
  for (const StreamTenant& t : tenants) {
    lines.push_back("{\"type\":\"deploy\",\"tenant\":\"" + t.name +
                    "\",\"config\":\"\"}");
  }
  return lines;
}

}  // namespace perfbench
