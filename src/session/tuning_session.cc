#include "session/tuning_session.h"

#include <cstdio>

#include "bandit/dba_bandits.h"
#include "common/macros.h"
#include "common/strings.h"
#include "dqn/nodba.h"
#include "dta/dta_tuner.h"
#include "mcts/mcts_tuner.h"
#include "obs/tracer.h"
#include "tuner/greedy.h"
#include "tuner/relaxation.h"
#include "whatif/trace_io.h"

namespace bati {

namespace {

/// Simulated non-what-if tuning overhead: per-call bookkeeping plus a fixed
/// setup term (parsing, candidate generation). Chosen so what-if time is
/// 75-93% of the total, as the paper measures (Figure 2).
constexpr double kOtherSecondsPerCall = 0.12;
constexpr double kOtherSecondsFixed = 30.0;

}  // namespace

namespace {

using Family = AlgorithmChoice::Family;

struct FixedName {
  const char* name;
  Family family;
};

constexpr FixedName kFixedNames[] = {
    {"vanilla-greedy", Family::kVanillaGreedy},
    {"two-phase-greedy", Family::kTwoPhaseGreedy},
    {"autoadmin-greedy", Family::kAutoAdminGreedy},
    {"dba-bandits", Family::kDbaBandits},
    {"no-dba", Family::kNoDba},
    {"dta", Family::kDta},
    {"relaxation", Family::kRelaxation},
};

/// One "-token" of an MCTS name. A name takes at most one token per group:
/// 0 action policy, 1 rollout, 2 extraction, 3 RAVE, 4 featurized priors.
struct MctsToken {
  const char* token;
  int group;
  void (*apply)(MctsOptions& options);
};

constexpr int kMctsTokenGroups = 5;

constexpr MctsToken kMctsTokens[] = {
    {"uct", 0,
     [](MctsOptions& o) { o.action_policy = MctsOptions::ActionPolicy::kUct; }},
    {"prior", 0,
     [](MctsOptions& o) {
       o.action_policy = MctsOptions::ActionPolicy::kEpsGreedyPrior;
     }},
    {"boltz", 0,
     [](MctsOptions& o) {
       o.action_policy = MctsOptions::ActionPolicy::kBoltzmann;
     }},
    {"rnd", 1,
     [](MctsOptions& o) {
       o.rollout_policy = MctsOptions::RolloutPolicy::kRandomStep;
     }},
    {"fix0", 1,
     [](MctsOptions& o) {
       o.rollout_policy = MctsOptions::RolloutPolicy::kFixedStep;
       o.fixed_rollout_step = 0;
     }},
    {"fix1", 1,
     [](MctsOptions& o) {
       o.rollout_policy = MctsOptions::RolloutPolicy::kFixedStep;
       o.fixed_rollout_step = 1;
     }},
    {"bce", 2,
     [](MctsOptions& o) { o.extraction = MctsOptions::Extraction::kBce; }},
    {"bg", 2,
     [](MctsOptions& o) {
       o.extraction = MctsOptions::Extraction::kBestGreedy;
     }},
    {"hybrid", 2,
     [](MctsOptions& o) { o.extraction = MctsOptions::Extraction::kHybrid; }},
    {"rave", 3, [](MctsOptions& o) { o.use_rave = true; }},
    {"feat", 4, [](MctsOptions& o) { o.featurized_priors = true; }},
};

}  // namespace

StatusOr<AlgorithmChoice> ParseAlgorithm(const std::string& algorithm) {
  auto invalid = [&](const std::string& why) {
    return Status::InvalidArgument("unknown algorithm \"" + algorithm + "\"" +
                                   why);
  };
  AlgorithmChoice choice;
  for (const FixedName& fixed : kFixedNames) {
    if (algorithm == fixed.name) {
      choice.family = fixed.family;
      return choice;
    }
  }
  if (algorithm.rfind("mcts", 0) != 0) return invalid("");
  choice.family = Family::kMcts;
  if (algorithm.size() == 4) return choice;
  if (algorithm[4] != '-') return invalid("");
  const MctsToken* taken[kMctsTokenGroups] = {};
  for (const std::string& token : Split(algorithm.substr(5), '-')) {
    const MctsToken* match = nullptr;
    for (const MctsToken& t : kMctsTokens) {
      if (token == t.token) match = &t;
    }
    if (match == nullptr) {
      return invalid(": unknown token \"" + token + "\"");
    }
    if (const MctsToken* prior = taken[match->group]; prior != nullptr) {
      return invalid(": token \"" + token + "\"" +
                     (prior == match ? " repeats"
                                     : " conflicts with \"" +
                                           std::string(prior->token) + "\""));
    }
    taken[match->group] = match;
    match->apply(choice.mcts);
  }
  return choice;
}

std::unique_ptr<Tuner> MakeTuner(const std::string& algorithm,
                                 TuningContext ctx, uint64_t seed) {
  StatusOr<AlgorithmChoice> choice = ParseAlgorithm(algorithm);
  BATI_CHECK_OK(choice.status());
  switch (choice->family) {
    case Family::kVanillaGreedy:
      return std::make_unique<GreedyTuner>(std::move(ctx));
    case Family::kTwoPhaseGreedy:
      return std::make_unique<TwoPhaseGreedyTuner>(std::move(ctx));
    case Family::kAutoAdminGreedy:
      return std::make_unique<AutoAdminGreedyTuner>(std::move(ctx));
    case Family::kDbaBandits:
      return std::make_unique<DbaBanditsTuner>(std::move(ctx), seed);
    case Family::kNoDba:
      return std::make_unique<NoDbaTuner>(std::move(ctx), seed);
    case Family::kDta:
      return std::make_unique<DtaTuner>(std::move(ctx));
    case Family::kRelaxation:
      return std::make_unique<RelaxationTuner>(std::move(ctx));
    case Family::kMcts:
      break;
  }
  MctsOptions options = choice->mcts;
  options.seed = seed;
  return std::make_unique<MctsTuner>(std::move(ctx), options);
}

std::string RunIdentity(const RunSpec& spec) {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "workload=%s,algorithm=%s,budget=%lld,k=%d,storage=%g,seed=%llu,"
      "governor=%d/%d/%d",
      spec.workload.c_str(), spec.algorithm.c_str(),
      static_cast<long long>(spec.budget), spec.max_indexes,
      spec.max_storage_bytes, static_cast<unsigned long long>(spec.seed),
      spec.governor.enabled ? 1 : 0, spec.governor.skip_what_if ? 1 : 0,
      spec.governor.early_stop ? 1 : 0);
  std::string id = buf;
  id += "," + spec.faults.ToIdentityString();
  id += "," + spec.retry.ToIdentityString();
  return id;
}

TuningSession::TuningSession(const WorkloadBundle& bundle, RunSpec spec,
                             SessionOptions options)
    : bundle_(&bundle), spec_(std::move(spec)), options_(options) {
  TuningContext ctx;
  ctx.workload = &bundle.workload;
  ctx.candidates = &bundle.candidates;
  ctx.constraints.max_indexes = spec_.max_indexes;
  ctx.constraints.max_storage_bytes = spec_.max_storage_bytes;

  CostEngineOptions engine_options;
  engine_options.governor = spec_.governor;
  engine_options.faults = spec_.faults;
  engine_options.retry = spec_.retry;
  engine_options.checkpoint_path = spec_.checkpoint_path;
  engine_options.run_identity = RunIdentity(spec_);
  // When the spec asks for neither sink, the engine runs fully unobserved.
  if (spec_.collect_metrics) {
    registry_ = std::make_unique<MetricsRegistry>();
    engine_options.metrics = registry_.get();
  }
  if (!spec_.trace_path.empty() || spec_.trace_buffer > 0) {
    tracer_ = std::make_unique<Tracer>(spec_.trace_buffer == 0
                                           ? Tracer::kDefaultCapacity
                                           : spec_.trace_buffer);
    engine_options.tracer = tracer_.get();
  }
  service_ = std::make_unique<CostService>(
      bundle.optimizer.get(), &bundle.workload, &bundle.candidates.indexes,
      spec_.budget, engine_options);
  if (!spec_.resume_path.empty()) {
    resume_status_ = service_->ResumeFromFile(spec_.resume_path);
  }
  tuner_ = MakeTuner(spec_.algorithm, ctx, spec_.seed);
}

const RunOutcome& TuningSession::Run() {
  BATI_CHECK(!ran_ && "a TuningSession runs at most once");
  ran_ = true;
  if (!resume_status_.ok()) {
    // A rejected checkpoint must not silently replay a partial prefix, and
    // a fresh start converges on the identical result anyway, so falling
    // back is always safe. Loud, then continue un-resumed.
    std::fprintf(stderr,
                 "bati: checkpoint %s rejected, starting fresh: %s\n",
                 spec_.resume_path.c_str(), resume_status_.ToString().c_str());
  }
  CostService& service = *service_;
  result_ = tuner_->Tune(service);
  service.FinishObservability();

  RunOutcome& outcome = outcome_;
  outcome.true_improvement = service.TrueImprovement(result_.best_config);
  outcome.derived_improvement = result_.derived_improvement;
  outcome.calls_used = service.calls_made();
  outcome.config_size = result_.best_config.count();
  outcome.config_positions = result_.best_config.ToIndices();
  outcome.whatif_seconds = service.SimulatedWhatIfSeconds();
  outcome.other_seconds =
      kOtherSecondsFixed +
      kOtherSecondsPerCall * static_cast<double>(service.calls_made());
  if (const std::vector<double>* trace = tuner_->progress_trace()) {
    outcome.trace = *trace;
  }
  outcome.engine = service.EngineStats();
  if (registry_ != nullptr) {
    outcome.has_metrics = true;
    outcome.metrics = registry_->Snapshot();
  }
  if (tracer_ != nullptr) {
    outcome.trace_events = tracer_->size();
    outcome.trace_dropped = tracer_->dropped();
    if (!spec_.trace_path.empty()) {
      const Status st = tracer_->WriteChromeJson(spec_.trace_path);
      if (!st.ok()) {
        std::fprintf(stderr, "trace write failed: %s\n",
                     st.ToString().c_str());
      }
    }
  }
  if (options_.capture_result_json) {
    result_json_ = ResultToJson(service, bundle_->workload, tuner_->name(),
                                result_.best_config, outcome.true_improvement,
                                registry_ != nullptr ? &outcome.metrics
                                                     : nullptr,
                                options_.canonical_result_json);
  }
  if (options_.capture_layout_csv) {
    layout_csv_ = LayoutToCsv(service, bundle_->workload);
  }
  return outcome_;
}

RunOutcome RunOnce(const WorkloadBundle& bundle, const RunSpec& spec) {
  TuningSession session(bundle, spec);
  return session.Run();
}

}  // namespace bati
