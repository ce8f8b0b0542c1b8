#include "whatif/cost_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/macros.h"

namespace bati {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

CostService::CostService(const WhatIfOptimizer* optimizer,
                         const Workload* workload,
                         const std::vector<Index>* candidates, int64_t budget,
                         const CostEngineOptions& options)
    : optimizer_(optimizer),
      workload_(workload),
      candidates_(candidates),
      meter_(budget),
      executor_(optimizer, workload, candidates),
      index_(workload == nullptr ? 0 : workload->num_queries(),
             candidates == nullptr ? 0
                                   : static_cast<int>(candidates->size())),
      options_(options) {
  BATI_CHECK(optimizer_ != nullptr);
  BATI_CHECK(workload_ != nullptr);
  BATI_CHECK(candidates_ != nullptr);
  BATI_CHECK(budget >= 0);
  const int m = workload_->num_queries();
  base_costs_.resize(static_cast<size_t>(m));
  const std::vector<Index> no_indexes;
  for (int q = 0; q < m; ++q) {
    base_costs_[static_cast<size_t>(q)] =
        optimizer_->Cost(workload_->queries[static_cast<size_t>(q)],
                         no_indexes);
    base_workload_cost_ += base_costs_[static_cast<size_t>(q)];
  }
  floor_costs_ = base_costs_;
  floor_workload_cost_ = base_workload_cost_;
  if (options_.governor.enabled) {
    governor_ = std::make_unique<BudgetGovernor>(options_.governor, budget,
                                                 base_workload_cost_);
  }
  if (options_.faults.enabled) {
    injector_ = std::make_unique<FaultInjector>(options_.faults);
    executor_.ConfigureFaults(injector_.get(), options_.retry);
  }
  journal_enabled_ =
      !options_.checkpoint_path.empty() || options_.capture_checkpoints;
  metrics_ = options_.metrics;
  tracer_ = options_.tracer;
  if (metrics_ != nullptr || tracer_ != nullptr) {
    executor_.SetObservability(metrics_, tracer_);
    index_.SetObservability(metrics_);
    if (governor_ != nullptr) governor_->SetObservability(metrics_);
  }
  if (metrics_ != nullptr) {
    obs_rounds_ = metrics_->GetCounter("tuner.rounds");
    obs_round_wall_us_ = metrics_->GetHistogram(
        "tuner.round_wall_us", ExponentialBuckets(1.0, 2.0, 32));
    obs_round_sim_s_ = metrics_->GetHistogram(
        "tuner.round_sim_s", ExponentialBuckets(1e-3, 2.0, 28));
    obs_checkpoint_wall_us_ = metrics_->GetHistogram(
        "checkpoint.write_wall_us", ExponentialBuckets(1.0, 2.0, 28));
  }
}

int CostService::BeginRound() { return BeginRound(nullptr); }

int CostService::BeginRound(const char* phase) {
  const int round = meter_.BeginRound();
  if (metrics_ != nullptr || tracer_ != nullptr) {
    ObserveRoundBoundary(phase, round);
  }
  if (governor_ != nullptr) {
    governor_->OnRound(round, meter_.calls_made(), meter_.remaining(),
                       floor_workload_cost_);
    if (tracer_ != nullptr && governor_->ShouldStop() && !stop_traced_) {
      stop_traced_ = true;
      const GovernorStats g = governor_->stats();
      tracer_->Instant(
          "governor.stop", "governor", executor_.simulated_seconds(),
          {{"round", static_cast<double>(g.stop_round)},
           {"calls", static_cast<double>(g.stop_calls)},
           {"remaining_ub_pct", g.remaining_improvement_ub_pct}});
    }
  }
  if (pending_resume_verify_ && !replaying()) {
    // Resume flips to live execution at the checkpointed round boundary:
    // the replayed prefix must have consumed the whole journal by then, and
    // the rebuilt state must match the recorded counters exactly.
    BATI_CHECK(round <= resume_header_.round &&
               "replayed run overran the checkpointed round");
    if (round == resume_header_.round) {
      VerifyResumeState();
      pending_resume_verify_ = false;
      if (tracer_ != nullptr) {
        tracer_->Instant(
            "checkpoint.replay_complete", "checkpoint",
            executor_.simulated_seconds(),
            {{"round", static_cast<double>(round)},
             {"events", static_cast<double>(replay_pos_)}});
      }
    }
  }
  if (journal_enabled_ && !replaying() && !pending_resume_verify_) {
    MaybeWriteCheckpoint();
  }
  if (options_.faults.crash_at_round == round && !replaying() &&
      (!resumed_ || round > resume_header_.round)) {
    // Named crash point "round-N": the checkpoint for this boundary is on
    // disk; die abruptly, skipping destructors, like a real crash would.
    std::fprintf(stderr,
                 "bati: simulated crash at round %d (checkpoint written)\n",
                 round);
    std::fflush(stderr);
    std::_Exit(42);
  }
  return round;
}

CellQuote CostService::MakeQuote(int query_id, const Config& config,
                                 int64_t ahead) const {
  CellQuote quote;
  quote.query_id = query_id;
  quote.base_cost = BaseCost(query_id);
  quote.calls_made = std::min(meter_.calls_made() + ahead, meter_.budget());
  quote.remaining_budget = std::max<int64_t>(meter_.remaining() - ahead, 0);
  if (!governor_->WantsCostBounds()) {
    // Early-stop-only governor: OnCell never consults the bracket, so the
    // bound probes would be pure overhead.
    quote.derived_upper = quote.base_cost;
    quote.cost_lower = 0.0;
    return quote;
  }
  quote.derived_upper = index_.SubsetMin(query_id, config, quote.base_cost);
  const double lb =
      std::max(index_.SupersetMaxLowerBound(query_id, config),
               index_.AdditiveLowerBound(query_id, config, quote.base_cost));
  // Clamp: the additive bound is heuristic and must never invert the
  // bracket (a negative gap would make zero-threshold skipping fire).
  quote.cost_lower = std::min(std::max(lb, 0.0), quote.derived_upper);
  return quote;
}

void CostService::NoteEvaluated(int query_id, double cost) {
  double& floor = floor_costs_[static_cast<size_t>(query_id)];
  if (cost < floor) {
    floor_workload_cost_ -= floor - cost;
    floor = cost;
  }
}

void CostService::RecordEvent(bool charged, int query_id,
                              const std::vector<size_t>& positions,
                              double cost, double sim_seconds) {
  CheckpointEvent e;
  e.charged = charged;
  e.query_id = query_id;
  e.round = meter_.current_round();
  e.cost = cost;
  e.sim_seconds = sim_seconds;
  e.positions = positions;
  journal_.push_back(std::move(e));
}

CellOutcome CostService::PopReplayEvent(
    int query_id, const std::vector<size_t>& positions) {
  BATI_CHECK(replay_pos_ < replay_end_ &&
             "checkpoint journal exhausted before the checkpointed round");
  const CheckpointEvent& e = journal_[replay_pos_];
  if (e.query_id != query_id || e.positions != positions) {
    std::fprintf(stderr,
                 "bati: checkpoint replay diverged at event %zu: recorded "
                 "q%d, replayed q%d\n",
                 replay_pos_, e.query_id, query_id);
  }
  BATI_CHECK(e.query_id == query_id && e.positions == positions &&
             "checkpoint replay diverged from the recorded run");
  ++replay_pos_;
  executor_.AccumulateReplaySimSeconds(e.sim_seconds);
  CellOutcome outcome;
  outcome.status =
      e.charged ? Status::Ok() : Status::Unavailable("journaled failure");
  outcome.cost = e.cost;
  outcome.sim_seconds = e.sim_seconds;
  return outcome;
}

double CostService::DegradeCell(int query_id, const Config& config) {
  ++degraded_cells_;
  if (tracer_ != nullptr) {
    tracer_->Instant("whatif.degraded", "fault",
                     executor_.simulated_seconds(),
                     {{"query", static_cast<double>(query_id)},
                      {"config_size", static_cast<double>(config.count())}});
  }
  return index_.SubsetMin(query_id, config, BaseCost(query_id));
}

double CostService::BaseCost(int query_id) const {
  return base_costs_.at(static_cast<size_t>(query_id));
}

std::optional<double> CostService::WhatIfCost(int query_id,
                                              const Config& config) {
  BATI_CHECK(query_id >= 0 && query_id < num_queries());
  if (config.empty()) return BaseCost(query_id);
  std::optional<double> out;
  ResolveCells({&query_id, 1}, config, {&out, 1}, /*batched=*/false);
  return out;
}

std::vector<std::optional<double>> CostService::WhatIfCostMany(
    const std::vector<int>& query_ids, const Config& config) {
  std::vector<std::optional<double>> out(query_ids.size());
  if (config.empty()) {
    for (size_t i = 0; i < query_ids.size(); ++i) {
      out[i] = BaseCost(query_ids[i]);
    }
    return out;
  }
  ResolveCells(query_ids, config, out, /*batched=*/true);
  return out;
}

void CostService::ResolveCells(std::span<const int> query_ids,
                               const Config& config,
                               std::span<std::optional<double>> out,
                               bool batched) {
  // Stage 1 — classify, without charging: cache hits, duplicates, governor
  // stops and skips. Pending cells are the distinct uncached ones, in input
  // order; the k-th is quoted as if the k cells ahead of it were charged.
  pending_.clear();
  pending_ids_.clear();
  duplicates_.clear();
  for (size_t i = 0; i < query_ids.size(); ++i) {
    const int q = query_ids[i];
    BATI_CHECK(q >= 0 && q < num_queries());
    if (const std::optional<double> cached = index_.Find(q, config)) {
      meter_.RecordCacheHit();
      out[i] = cached;
      continue;
    }
    const auto first = std::find(pending_ids_.begin(), pending_ids_.end(), q);
    if (first != pending_ids_.end()) {
      duplicates_.emplace_back(
          i, static_cast<size_t>(first - pending_ids_.begin()));
      continue;
    }
    CellQuote quote;
    quote.query_id = q;
    if (governor_ != nullptr) {
      if (governor_->ShouldStop()) continue;  // nullopt: stopped
      quote = MakeQuote(q, config, static_cast<int64_t>(pending_.size()));
      if (governor_->OnCell(quote) == CellDecision::kSkip) {
        if (tracer_ != nullptr) TraceGovernorSkip(quote);
        out[i] = quote.derived_upper;  // free: the budget unit is banked
        continue;
      }
    }
    if (!meter_.HasBudget()) continue;  // nullopt: exhausted
    pending_.push_back(PendingCell{i, quote});
    pending_ids_.push_back(q);
  }
  if (pending_.empty()) return;
  // Stages 2 and 3 — evaluate-then-commit in budget-sized chunks. Budget is
  // charged only on success, so a chunk attempts up to `remaining` cells,
  // commits them in input order, and the next chunk is attempted only if
  // failures left budget unspent — exactly the attempt set of the
  // sequential WhatIfCost() loop (outcomes are per-cell pure). Without
  // failures the first chunk is the whole affordable prefix.
  const std::vector<size_t> positions = config.ToIndices();
  // Whether the cells are replayed is decided once: the journal can run out
  // only at a batch's last attempt, and the cells after it must not be
  // journaled again.
  const bool replay = replaying();
  outcomes_.resize(pending_.size());
  size_t next = 0;
  while (next < pending_.size() && meter_.HasBudget()) {
    const size_t take = std::min(pending_.size() - next,
                                 static_cast<size_t>(meter_.remaining()));
    const std::span<CellOutcome> chunk(outcomes_.data() + next, take);
    if (replay) {
      for (size_t j = 0; j < take; ++j) {
        chunk[j] = PopReplayEvent(pending_ids_[next + j], positions);
      }
    } else {
      executor_.Evaluate(config, positions,
                         std::span<const int>(pending_ids_.data() + next, take),
                         chunk, batched);
    }
    for (size_t j = next; j < next + take; ++j) {
      out[pending_[j].slot] =
          CommitCell(config, positions, pending_[j].quote, outcomes_[j],
                     journal_enabled_ && !replay);
    }
    next += take;
  }
  // Duplicates copy their first occurrence's answer: a cache hit when it was
  // charged, the same degraded answer when it degraded, nullopt when the
  // budget ran out before it was attempted.
  for (const auto& [slot, p] : duplicates_) {
    if (p >= next) continue;
    if (outcomes_[p].status.ok()) meter_.RecordCacheHit();
    out[slot] = out[pending_[p].slot];
  }
}

double CostService::CommitCell(const Config& config,
                               const std::vector<size_t>& positions,
                               CellQuote& quote, const CellOutcome& outcome,
                               bool journal) {
  const int q = quote.query_id;
  const bool success = outcome.status.ok();
  if (journal) {
    RecordEvent(success, q, positions, success ? outcome.cost : 0.0,
                outcome.sim_seconds);
  }
  // Exhausted retries degrade to the derived cost — the same answer a
  // governor skip gives — so the caller never sees a failure.
  if (!success) return DegradeCell(q, config);
  // The governor's improvement curve is indexed by the charge count: the
  // meter's, not the classification-time projection, which failures ahead
  // of this cell would have overstated.
  quote.calls_made = meter_.calls_made();
  const bool charged = meter_.TryCharge(q, config);
  BATI_CHECK(charged);  // chunks never exceed the remaining budget
  index_.Add(q, config, positions, outcome.cost);
  NoteEvaluated(q, outcome.cost);
  if (governor_ != nullptr) {
    governor_->OnCharged(quote, outcome.cost, floor_workload_cost_);
  }
  return outcome.cost;
}

Status CostService::ResumeFromCheckpoint(const EngineCheckpoint& ckpt) {
  if (resumed_ || meter_.calls_made() != 0 || meter_.current_round() != 0 ||
      meter_.cache_hits() != 0 || !journal_.empty()) {
    return Status::FailedPrecondition(
        "resume requires a freshly constructed cost service");
  }
  if (ckpt.identity != options_.run_identity) {
    return Status::InvalidArgument(
        "checkpoint identity mismatch: checkpoint is \"" + ckpt.identity +
        "\", this run is \"" + options_.run_identity + "\"");
  }
  if (ckpt.budget != meter_.budget()) {
    return Status::InvalidArgument("checkpoint budget mismatch");
  }
  if (ckpt.num_queries != num_queries() ||
      ckpt.num_candidates != num_candidates()) {
    return Status::InvalidArgument("checkpoint workload shape mismatch");
  }
  if ((ckpt.governor_skipped > 0 || ckpt.governor_stop_round >= 0) &&
      governor_ == nullptr) {
    return Status::InvalidArgument(
        "checkpoint records governor activity but this run is ungoverned");
  }
  journal_ = ckpt.events;
  replay_pos_ = 0;
  replay_end_ = journal_.size();
  executor_.RestoreFaultCounters(ckpt.fault_transient, ckpt.fault_sticky,
                                 ckpt.fault_timeouts, ckpt.retry_attempts);
  resume_header_ = ckpt;
  resume_header_.events.clear();
  resumed_ = true;
  pending_resume_verify_ = true;
  return Status::Ok();
}

Status CostService::ResumeFromFile(const std::string& path) {
  StatusOr<EngineCheckpoint> ckpt = LoadCheckpoint(path);
  if (!ckpt.ok()) return ckpt.status();
  return ResumeFromCheckpoint(*ckpt);
}

EngineCheckpoint CostService::MakeCheckpoint() const {
  BATI_CHECK(journal_enabled_ &&
             "checkpointing requires an armed event journal");
  EngineCheckpoint ckpt;
  ckpt.identity = options_.run_identity;
  ckpt.num_queries = num_queries();
  ckpt.num_candidates = num_candidates();
  ckpt.budget = meter_.budget();
  ckpt.round = meter_.current_round();
  ckpt.calls_made = meter_.calls_made();
  ckpt.cache_hits = meter_.cache_hits();
  ckpt.degraded_cells = degraded_cells_;
  // Replay answers journaled cells without the executor, so a resumed run's
  // live batch count excludes everything before the resume point; carry the
  // header's count forward so checkpoint chains stay cumulative.
  ckpt.batched_cells =
      executor_.batched_cells() + (resumed_ ? resume_header_.batched_cells : 0);
  ckpt.sim_seconds = executor_.simulated_seconds();
  ckpt.fault_transient = executor_.transient_faults();
  ckpt.fault_sticky = executor_.sticky_faults();
  ckpt.fault_timeouts = executor_.timeout_faults();
  ckpt.retry_attempts = executor_.retry_attempts();
  if (governor_ != nullptr) {
    const GovernorStats g = governor_->stats();
    ckpt.governor_skipped = g.skipped_calls;
    ckpt.governor_banked = g.banked_calls;
    ckpt.governor_reallocated = g.reallocated_calls;
    ckpt.governor_stop_round = g.stop_round;
    ckpt.governor_stop_calls = g.stop_calls;
  }
  ckpt.events = journal_;
  return ckpt;
}

void CostService::VerifyResumeState() const {
  const EngineCheckpoint& c = resume_header_;
  bool ok = meter_.calls_made() == c.calls_made &&
            meter_.cache_hits() == c.cache_hits &&
            degraded_cells_ == c.degraded_cells &&
            executor_.simulated_seconds() == c.sim_seconds &&
            executor_.transient_faults() == c.fault_transient &&
            executor_.sticky_faults() == c.fault_sticky &&
            executor_.timeout_faults() == c.fault_timeouts &&
            executor_.retry_attempts() == c.retry_attempts;
  if (governor_ != nullptr) {
    const GovernorStats g = governor_->stats();
    ok = ok && g.skipped_calls == c.governor_skipped &&
         g.banked_calls == c.governor_banked &&
         g.reallocated_calls == c.governor_reallocated &&
         g.stop_round == c.governor_stop_round &&
         g.stop_calls == c.governor_stop_calls;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "bati: resumed state diverged from checkpoint at round %d "
                 "(calls %lld vs %lld, hits %lld vs %lld, degraded %lld vs "
                 "%lld)\n",
                 c.round, static_cast<long long>(meter_.calls_made()),
                 static_cast<long long>(c.calls_made),
                 static_cast<long long>(meter_.cache_hits()),
                 static_cast<long long>(c.cache_hits),
                 static_cast<long long>(degraded_cells_),
                 static_cast<long long>(c.degraded_cells));
  }
  BATI_CHECK(ok && "resumed state diverged from checkpoint");
}

void CostService::MaybeWriteCheckpoint() {
  const double start = NowSeconds();
  const EngineCheckpoint ckpt = MakeCheckpoint();
  if (options_.capture_checkpoints) {
    captured_checkpoints_.push_back(SerializeCheckpoint(ckpt));
  }
  if (!options_.checkpoint_path.empty()) {
    const Status st = SaveCheckpoint(ckpt, options_.checkpoint_path);
    // Only the first failure is reported: an unwritable path fails again
    // at every round boundary.
    if (!st.ok() && checkpoint_status_.ok()) {
      std::fprintf(stderr, "bati: checkpoint write failed: %s\n",
                   st.ToString().c_str());
      checkpoint_status_ = st;
    }
  }
  const double wall_us = (NowSeconds() - start) * 1e6;
  if (obs_checkpoint_wall_us_ != nullptr) {
    obs_checkpoint_wall_us_->Record(wall_us);
  }
  if (tracer_ != nullptr) {
    tracer_->Complete("checkpoint.write", "checkpoint",
                      tracer_->NowUs() - wall_us, wall_us,
                      executor_.simulated_seconds(), 0.0,
                      {{"round", static_cast<double>(ckpt.round)},
                       {"events", static_cast<double>(ckpt.events.size())},
                       {"calls", static_cast<double>(ckpt.calls_made)}});
  }
}

bool CostService::IsKnown(int query_id, const Config& config) const {
  if (config.empty()) return true;
  return index_.Find(query_id, config).has_value();
}

std::optional<double> CostService::CachedCost(int query_id,
                                              const Config& config) const {
  if (config.empty()) return BaseCost(query_id);
  return index_.Find(query_id, config);
}

double CostService::DerivedCost(int query_id, const Config& config) const {
  return index_.SubsetMin(query_id, config, BaseCost(query_id));
}

std::vector<double> CostService::DerivedCosts(const Config& config) const {
  std::vector<double> out(static_cast<size_t>(num_queries()));
  for (int q = 0; q < num_queries(); ++q) {
    out[static_cast<size_t>(q)] = index_.SubsetMin(q, config, BaseCost(q));
  }
  return out;
}

double CostService::DerivedWorkloadCost(const Config& config) const {
  double total = 0.0;
  for (int q = 0; q < num_queries(); ++q) total += DerivedCost(q, config);
  return total;
}

double CostService::DerivedCostWithAdd(int query_id, const Config& config,
                                       size_t pos,
                                       double current_derived) const {
  return index_.SubsetMinWithAdd(query_id, config, pos, current_derived);
}

double CostService::DerivedCostDeltaAdd(int query_id, const Config& config,
                                        size_t pos) const {
  return index_.DeltaAdd(query_id, config, pos, BaseCost(query_id));
}

double CostService::SingletonDerivedCost(int query_id,
                                         const Config& config) const {
  return index_.SingletonMin(query_id, config, BaseCost(query_id));
}

double CostService::DerivedImprovement(const Config& config) const {
  if (base_workload_cost_ <= 0.0) return 0.0;
  return (1.0 - DerivedWorkloadCost(config) / base_workload_cost_) * 100.0;
}

double CostService::TrueWorkloadCost(const Config& config) const {
  std::vector<Index> materialized = Materialize(config);
  double total = 0.0;
  for (const Query& q : workload_->queries) {
    total += executor_.TrueCost(q, materialized);
  }
  return total;
}

double CostService::TrueImprovement(const Config& config) const {
  if (base_workload_cost_ <= 0.0) return 0.0;
  return (1.0 - TrueWorkloadCost(config) / base_workload_cost_) * 100.0;
}

void CostService::ObserveRoundBoundary(const char* phase, int round) {
  CloseRoundSpan();
  if (obs_rounds_ != nullptr) obs_rounds_->Increment();
  // Episode-per-round tuners (MCTS, bandits) reach thousands of rounds; the
  // round span's clock reads and tracer mutex are too expensive to pay on
  // all of them. The first kRoundFullDetail rounds are always spanned —
  // covering the greedy family's entire run — and beyond that one round in
  // (kRoundSampleMask + 1) is, deterministically by round number.
  if (round > kRoundFullDetail &&
      (static_cast<unsigned>(round) & kRoundSampleMask) != 0) {
    return;
  }
  round_phase_ = phase == nullptr ? "round" : phase;
  round_number_ = round;
  round_wall_start_s_ = NowSeconds();
  round_sim_start_s_ = executor_.simulated_seconds();
}

void CostService::CloseRoundSpan() {
  if (round_phase_ == nullptr) return;
  const double wall_us = (NowSeconds() - round_wall_start_s_) * 1e6;
  const double sim = executor_.simulated_seconds() - round_sim_start_s_;
  if (obs_round_wall_us_ != nullptr) obs_round_wall_us_->Record(wall_us);
  if (obs_round_sim_s_ != nullptr) obs_round_sim_s_->Record(sim);
  if (tracer_ != nullptr) {
    tracer_->Complete(round_phase_, "tuner", tracer_->NowUs() - wall_us,
                      wall_us, round_sim_start_s_, sim,
                      {{"round", static_cast<double>(round_number_)}});
  }
  round_phase_ = nullptr;
}

void CostService::TraceGovernorSkip(const CellQuote& quote) {
  tracer_->Instant("governor.skip", "governor",
                   executor_.simulated_seconds(),
                   {{"query", static_cast<double>(quote.query_id)},
                    {"derived_upper", quote.derived_upper},
                    {"cost_lower", quote.cost_lower},
                    {"remaining", static_cast<double>(
                                      quote.remaining_budget)}});
}

void CostService::FinishObservability() {
  if (metrics_ == nullptr && tracer_ == nullptr) return;
  CloseRoundSpan();
  if (metrics_ == nullptr) return;
  // Synchronize the engine's cross-layer counters into the registry once,
  // at the end of the run, instead of paying per-call registry traffic on
  // hot paths that already count through EngineStats().
  const CostEngineStats s = EngineStats();
  auto sync = [this](const char* name, int64_t v) {
    Counter* c = metrics_->GetCounter(name);
    c->Add(v - c->value());
  };
  sync("engine.whatif_calls", s.what_if_calls);
  sync("engine.cache_hits", s.cache_hits);
  sync("engine.batched_cells", s.batched_cells);
  sync("engine.degraded_cells", s.degraded_cells);
  sync("engine.fault_transient_errors", s.fault_transient_errors);
  sync("engine.fault_sticky_failures", s.fault_sticky_failures);
  sync("engine.fault_timeouts", s.fault_timeouts);
  sync("engine.retry_attempts", s.retry_attempts);
  sync("index.derived_lookups", s.derived_lookups);
  sync("index.delta_lookups", s.delta_lookups);
  sync("index.entries", s.index_entries);
  sync("index.scanned_entries", s.index_scanned_entries);
  sync("index.pruned_entries", s.index_pruned_entries);
  sync("index.lower_bound_lookups", s.lower_bound_lookups);
  sync("checkpoint.replayed_events", static_cast<int64_t>(replay_pos_));
  metrics_->GetGauge("engine.executor_wall_seconds")
      ->Set(s.executor_wall_seconds);
  metrics_->GetGauge("engine.simulated_whatif_seconds")
      ->Set(s.simulated_whatif_seconds);
  if (governor_ != nullptr) {
    sync("governor.banked_calls", s.governor_banked_calls);
    sync("governor.reallocated_calls", s.governor_reallocated_calls);
    metrics_->GetGauge("governor.stop_round")
        ->Set(static_cast<double>(s.governor_stop_round));
  }
}

CostEngineStats CostService::EngineStats() const {
  CostEngineStats stats;
  stats.what_if_calls = meter_.calls_made();
  stats.cache_hits = meter_.cache_hits();
  stats.batched_cells =
      executor_.batched_cells() + (resumed_ ? resume_header_.batched_cells : 0);
  stats.executor_wall_seconds = executor_.wall_seconds();
  stats.simulated_whatif_seconds = executor_.simulated_seconds();
  stats.degraded_cells = degraded_cells_;
  stats.replayed_calls = resumed_ ? resume_header_.calls_made : 0;
  stats.fault_transient_errors = executor_.transient_faults();
  stats.fault_sticky_failures = executor_.sticky_faults();
  stats.fault_timeouts = executor_.timeout_faults();
  stats.retry_attempts = executor_.retry_attempts();
  index_.AccumulateStats(&stats);
  if (governor_ != nullptr) {
    const GovernorStats g = governor_->stats();
    stats.governor_skipped_calls = g.skipped_calls;
    stats.governor_banked_calls = g.banked_calls;
    stats.governor_reallocated_calls = g.reallocated_calls;
    stats.governor_stop_round = g.stop_round;
    stats.governor_stop_calls = g.stop_calls;
  }
  return stats;
}

}  // namespace bati
