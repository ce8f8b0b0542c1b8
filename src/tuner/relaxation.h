#ifndef BATI_TUNER_RELAXATION_H_
#define BATI_TUNER_RELAXATION_H_

#include <string>

#include "tuner/tuner.h"

namespace bati {

/// Budget-aware adaptation of relaxation-based enumeration (Bruno &
/// Chaudhuri's "Automatic Physical Database Tuning: A Relaxation-based
/// Approach", cited by the paper as a classic alternative to greedy
/// bottom-up search). Instead of growing a configuration, relaxation starts
/// from a near-ideal configuration and shrinks it:
///
///   1. Seed: evaluate singletons per query (FCFS within half the budget)
///      and take the union of each query's best index.
///   2. Relax: while the configuration violates the cardinality or storage
///      constraint, apply the transformation (index removal, or a merge
///      into an existing universe candidate) with the smallest cost
///      penalty, costing candidates with what-if calls while budget
///      remains and derived costs afterwards.
///
/// The best *feasible* configuration seen (by derived improvement) is
/// returned, so the tuner is anytime like the rest of the suite.
class RelaxationTuner : public Tuner {
 public:
  explicit RelaxationTuner(TuningContext ctx);

  TuningResult Tune(CostService& service) override;
  std::string name() const override { return "relaxation"; }

 private:
  TuningContext ctx_;
};

}  // namespace bati

#endif  // BATI_TUNER_RELAXATION_H_
