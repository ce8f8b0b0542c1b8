#include "fleet/chaos.h"

#include "common/macros.h"

namespace bati {

namespace {

/// SplitMix64 finalizer — the same mixer the what-if FaultInjector and the
/// library Rng use, so the fleet's schedule quality matches theirs.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double ToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

ChaosInjector::ChaosInjector(const ChaosOptions& options)
    : options_(options) {
  BATI_CHECK(options_.enabled);
  BATI_CHECK(options_.kill_rate >= 0.0 && options_.kill_rate <= 1.0);
  BATI_CHECK(options_.stall_rate >= 0.0 && options_.stall_rate <= 1.0);
  BATI_CHECK(options_.garble_rate >= 0.0 && options_.garble_rate <= 1.0);
  BATI_CHECK(options_.kill_round_span >= 1);
  BATI_CHECK(options_.max_faulty_attempts >= 0);
}

double ChaosInjector::Draw(uint64_t salt, uint64_t task_id,
                           int attempt) const {
  uint64_t h = Mix(options_.seed ^ salt);
  h = Mix(h ^ task_id);
  h = Mix(h ^ static_cast<uint64_t>(attempt));
  return ToUnit(h);
}

ChaosDecision ChaosInjector::Decide(uint64_t task_id, int attempt) const {
  BATI_CHECK(attempt >= 1);
  ChaosDecision d;
  // The progress guarantee: past the faulty-attempt budget the schedule
  // goes quiet, so every task completes within a bounded attempt count.
  if (attempt > options_.max_faulty_attempts) return d;
  if (options_.kill_rate > 0.0 &&
      Draw(/*salt=*/0x9b1f3cULL, task_id, attempt) < options_.kill_rate) {
    d.kind = ChaosKind::kKill;
    d.kill_round =
        1 + static_cast<int>(Mix(options_.seed ^ 0x5eedULL ^
                                 Mix(task_id) ^
                                 static_cast<uint64_t>(attempt)) %
                             static_cast<uint64_t>(options_.kill_round_span));
    return d;
  }
  if (options_.stall_rate > 0.0 &&
      Draw(/*salt=*/0x2d11ab7ULL, task_id, attempt) < options_.stall_rate) {
    d.kind = ChaosKind::kStall;
    return d;
  }
  if (options_.garble_rate > 0.0 &&
      Draw(/*salt=*/0x6c0ffee5ULL, task_id, attempt) < options_.garble_rate) {
    d.kind = ChaosKind::kGarble;
    return d;
  }
  return d;
}

}  // namespace bati
