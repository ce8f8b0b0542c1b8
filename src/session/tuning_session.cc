#include "session/tuning_session.h"

#include <cstdio>

#include "bandit/dba_bandits.h"
#include "common/macros.h"
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

std::unique_ptr<Tuner> MakeTuner(const std::string& algorithm,
                                 TuningContext ctx, uint64_t seed) {
  if (algorithm == "vanilla-greedy") {
    return std::make_unique<GreedyTuner>(std::move(ctx));
  }
  if (algorithm == "two-phase-greedy") {
    return std::make_unique<TwoPhaseGreedyTuner>(std::move(ctx));
  }
  if (algorithm == "autoadmin-greedy") {
    return std::make_unique<AutoAdminGreedyTuner>(std::move(ctx));
  }
  if (algorithm == "dba-bandits") {
    DbaBanditsOptions opt;
    opt.seed = seed;
    return std::make_unique<DbaBanditsTuner>(std::move(ctx), opt);
  }
  if (algorithm == "no-dba") {
    NoDbaOptions opt;
    opt.seed = seed;
    return std::make_unique<NoDbaTuner>(std::move(ctx), opt);
  }
  if (algorithm == "dta") {
    return std::make_unique<DtaTuner>(std::move(ctx));
  }
  if (algorithm == "relaxation") {
    return std::make_unique<RelaxationTuner>(std::move(ctx));
  }
  if (algorithm.rfind("mcts", 0) == 0) {
    MctsOptions opt;  // defaults = paper's recommended setting
    opt.seed = seed;
    if (algorithm.find("-uct") != std::string::npos) {
      opt.action_policy = MctsOptions::ActionPolicy::kUct;
    }
    if (algorithm.find("-prior") != std::string::npos) {
      opt.action_policy = MctsOptions::ActionPolicy::kEpsGreedyPrior;
    }
    if (algorithm.find("-boltz") != std::string::npos) {
      opt.action_policy = MctsOptions::ActionPolicy::kBoltzmann;
    }
    if (algorithm.find("-bce") != std::string::npos) {
      opt.extraction = MctsOptions::Extraction::kBce;
    }
    if (algorithm.find("-bg") != std::string::npos) {
      opt.extraction = MctsOptions::Extraction::kBestGreedy;
    }
    if (algorithm.find("-hybrid") != std::string::npos) {
      opt.extraction = MctsOptions::Extraction::kHybrid;
    }
    if (algorithm.find("-rave") != std::string::npos) {
      opt.use_rave = true;
    }
    if (algorithm.find("-feat") != std::string::npos) {
      opt.featurized_priors = true;
    }
    if (algorithm.find("-rnd") != std::string::npos) {
      opt.rollout_policy = MctsOptions::RolloutPolicy::kRandomStep;
    }
    if (algorithm.find("-fix0") != std::string::npos) {
      opt.rollout_policy = MctsOptions::RolloutPolicy::kFixedStep;
      opt.fixed_rollout_step = 0;
    }
    if (algorithm.find("-fix1") != std::string::npos) {
      opt.rollout_policy = MctsOptions::RolloutPolicy::kFixedStep;
      opt.fixed_rollout_step = 1;
    }
    return std::make_unique<MctsTuner>(std::move(ctx), opt);
  }
  BATI_CHECK(false && "unknown algorithm name");
  return nullptr;
}

bool IsKnownAlgorithm(const std::string& algorithm) {
  // Keep in sync with MakeTuner above: fixed names plus the "mcts[-...]"
  // ablation family (MakeTuner treats unrecognized suffixes as the paper's
  // default setting, so any "mcts" prefix is runnable).
  return algorithm == "vanilla-greedy" || algorithm == "two-phase-greedy" ||
         algorithm == "autoadmin-greedy" || algorithm == "dba-bandits" ||
         algorithm == "no-dba" || algorithm == "dta" ||
         algorithm == "relaxation" || algorithm.rfind("mcts", 0) == 0;
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
