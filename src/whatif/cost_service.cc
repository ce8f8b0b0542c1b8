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
             candidates == nullptr
                 ? 0
                 : static_cast<int>(candidates->size()),
             options.index_shards),
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
  if (options_.whatif_pool_size > 0) {
    executor_.SetPoolSize(static_cast<size_t>(options_.whatif_pool_size));
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

CellQuote CostService::MakeQuote(int query_id, const Config& config) const {
  CellQuote quote;
  quote.query_id = query_id;
  quote.base_cost = BaseCost(query_id);
  quote.calls_made = meter_.calls_made();
  quote.remaining_budget = meter_.remaining();
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

CheckpointEvent CostService::PopReplayEvent(
    int query_id, const std::vector<size_t>& positions) {
  BATI_CHECK(replay_pos_ < replay_end_ &&
             "checkpoint journal exhausted before the checkpointed round");
  CheckpointEvent e = journal_[replay_pos_];
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
  return e;
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
  if (const double* cached = index_.Find(query_id, config)) {
    meter_.RecordCacheHit();
    return *cached;
  }
  CellQuote quote;
  if (governor_ != nullptr) {
    if (governor_->ShouldStop()) return std::nullopt;
    quote = MakeQuote(query_id, config);
    if (governor_->OnCell(quote) == CellDecision::kSkip) {
      if (tracer_ != nullptr) TraceGovernorSkip(quote);
      return quote.derived_upper;  // free: the budget unit is banked
    }
  }
  if (!FaultsEnabled()) {
    // Fault-free path, charge-then-evaluate: bit-identical to the
    // pre-fault engine. Replay substitutes only the evaluation.
    if (!meter_.TryCharge(query_id, config)) return std::nullopt;
    const std::vector<size_t> positions = config.ToIndices();
    double cost;
    if (replaying()) {
      const CheckpointEvent e = PopReplayEvent(query_id, positions);
      BATI_CHECK(e.charged);
      cost = e.cost;
    } else {
      cost = executor_.EvaluateCell(query_id, positions);
      if (journal_enabled_) {
        RecordEvent(/*charged=*/true, query_id, positions, cost,
                    optimizer_->EstimateCallSeconds(
                        workload_->queries[static_cast<size_t>(query_id)]));
      }
    }
    index_.Add(query_id, config, positions, cost);
    NoteEvaluated(query_id, cost);
    if (governor_ != nullptr) {
      governor_->OnCharged(quote, cost, floor_workload_cost_);
    }
    return cost;
  }
  // Fault-injected path, evaluate-then-charge: the retry loop burns
  // simulated time whether or not it succeeds, but the budget (and the
  // layout trace) records only successful cells. Exhausted retries degrade
  // to the derived cost — the same answer a governor skip gives — so the
  // caller never sees a failure.
  if (!meter_.HasBudget()) return std::nullopt;
  const std::vector<size_t> positions = config.ToIndices();
  bool success;
  double cost = 0.0;
  if (replaying()) {
    const CheckpointEvent e = PopReplayEvent(query_id, positions);
    success = e.charged;
    cost = e.cost;
  } else {
    const CellOutcome outcome =
        executor_.EvaluateCellWithRetry(query_id, positions, config.Hash());
    success = outcome.status.ok();
    cost = outcome.cost;
    if (journal_enabled_) {
      RecordEvent(success, query_id, positions, success ? cost : 0.0,
                  outcome.sim_seconds);
    }
  }
  if (!success) return DegradeCell(query_id, config);
  const bool charged = meter_.TryCharge(query_id, config);
  BATI_CHECK(charged);  // HasBudget() held and nothing charged in between
  index_.Add(query_id, config, positions, cost);
  NoteEvaluated(query_id, cost);
  if (governor_ != nullptr) {
    governor_->OnCharged(quote, cost, floor_workload_cost_);
  }
  return cost;
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
  if (FaultsEnabled()) {
    WhatIfCostManyFaulted(query_ids, config, &out);
    return out;
  }
  // Charge sequentially in input order — exactly the cells a WhatIfCost()
  // loop would buy — and collect the uncached, affordable ones. Governed
  // runs consult the governor per cell before charging; skip decisions
  // quote the cache as of batch entry (see header).
  std::vector<WhatIfExecutor::CellRef> to_run;
  std::vector<size_t> run_slots;  // out[] slot of each cell in to_run
  std::vector<CellQuote> run_quotes;  // governed runs: quote per to_run cell
  // (duplicate slot, first-occurrence slot): a repeated query later in the
  // batch is a cache hit in loop semantics.
  std::vector<std::pair<size_t, size_t>> duplicates;
  for (size_t i = 0; i < query_ids.size(); ++i) {
    const int q = query_ids[i];
    BATI_CHECK(q >= 0 && q < num_queries());
    if (const double* cached = index_.Find(q, config)) {
      meter_.RecordCacheHit();
      out[i] = *cached;
      continue;
    }
    size_t first = to_run.size();
    for (size_t j = 0; j < to_run.size(); ++j) {
      if (to_run[j].query_id == q) {
        first = j;
        break;
      }
    }
    if (first < to_run.size()) {
      meter_.RecordCacheHit();
      duplicates.emplace_back(i, run_slots[first]);
      continue;
    }
    if (governor_ != nullptr) {
      if (governor_->ShouldStop()) continue;  // nullopt: stopped
      CellQuote quote = MakeQuote(q, config);
      if (governor_->OnCell(quote) == CellDecision::kSkip) {
        if (tracer_ != nullptr) TraceGovernorSkip(quote);
        out[i] = quote.derived_upper;
        continue;
      }
      if (!meter_.TryCharge(q, config)) continue;  // nullopt: exhausted
      to_run.push_back(WhatIfExecutor::CellRef{q, &config});
      run_slots.push_back(i);
      run_quotes.push_back(quote);
      continue;
    }
    if (!meter_.TryCharge(q, config)) continue;  // nullopt: exhausted
    to_run.push_back(WhatIfExecutor::CellRef{q, &config});
    run_slots.push_back(i);
  }
  if (!to_run.empty()) {
    const std::vector<size_t> positions = config.ToIndices();
    // Whether this batch is replayed is decided once: the journal can run
    // out only at the batch's last attempt, and the cells after the pop
    // loop must not re-journal a replayed batch.
    const bool replay_batch = replaying();
    std::vector<double> costs;
    if (replay_batch) {
      costs.reserve(to_run.size());
      for (const WhatIfExecutor::CellRef& cell : to_run) {
        const CheckpointEvent e = PopReplayEvent(cell.query_id, positions);
        BATI_CHECK(e.charged);
        costs.push_back(e.cost);
      }
    } else {
      costs = executor_.EvaluateCells(to_run);
    }
    for (size_t j = 0; j < to_run.size(); ++j) {
      index_.Add(to_run[j].query_id, config, positions, costs[j]);
      NoteEvaluated(to_run[j].query_id, costs[j]);
      if (governor_ != nullptr) {
        governor_->OnCharged(run_quotes[j], costs[j], floor_workload_cost_);
      }
      if (journal_enabled_ && !replay_batch) {
        RecordEvent(
            /*charged=*/true, to_run[j].query_id, positions, costs[j],
            optimizer_->EstimateCallSeconds(
                workload_->queries[static_cast<size_t>(to_run[j].query_id)]));
      }
      out[run_slots[j]] = costs[j];
    }
  }
  for (const auto& [slot, source] : duplicates) out[slot] = out[source];
  return out;
}

void CostService::WhatIfCostManyFaulted(
    const std::vector<int>& query_ids, const Config& config,
    std::vector<std::optional<double>>* out_ptr) {
  std::vector<std::optional<double>>& out = *out_ptr;
  // Stage 1 — classify, without charging: cache hits, duplicates, governor
  // skips/stops. Pending cells are the distinct uncached ones, in input
  // order.
  struct PendingCell {
    size_t slot = 0;  // out[] slot of the first occurrence
    int query_id = -1;
    CellQuote quote;
  };
  std::vector<PendingCell> pending;
  // (duplicate slot, pending index): resolved after evaluation from the
  // first occurrence's outcome.
  std::vector<std::pair<size_t, size_t>> duplicates;
  for (size_t i = 0; i < query_ids.size(); ++i) {
    const int q = query_ids[i];
    BATI_CHECK(q >= 0 && q < num_queries());
    if (const double* cached = index_.Find(q, config)) {
      meter_.RecordCacheHit();
      out[i] = *cached;
      continue;
    }
    size_t first = pending.size();
    for (size_t j = 0; j < pending.size(); ++j) {
      if (pending[j].query_id == q) {
        first = j;
        break;
      }
    }
    if (first < pending.size()) {
      duplicates.emplace_back(i, first);
      continue;
    }
    PendingCell cell;
    cell.slot = i;
    cell.query_id = q;
    if (governor_ != nullptr) {
      if (governor_->ShouldStop()) continue;  // nullopt: stopped
      cell.quote = MakeQuote(q, config);
      if (governor_->OnCell(cell.quote) == CellDecision::kSkip) {
        if (tracer_ != nullptr) TraceGovernorSkip(cell.quote);
        out[i] = cell.quote.derived_upper;
        continue;
      }
    }
    pending.push_back(std::move(cell));
  }
  // Stage 2 — evaluate-then-commit in budget-sized chunks. Budget is
  // charged only on success, so the batch attempts up to `remaining` cells
  // concurrently, commits in input order, and attempts the next chunk if
  // failures left budget unspent — reproducing exactly the attempt set of
  // the sequential WhatIfCost() loop (outcomes are per-cell pure).
  enum : char { kUnresolved = 0, kCharged = 1, kDegraded = 2 };
  std::vector<char> state(pending.size(), kUnresolved);
  if (!pending.empty()) {
    const std::vector<size_t> positions = config.ToIndices();
    const bool replay_batch = replaying();
    size_t next = 0;
    while (next < pending.size() && meter_.HasBudget()) {
      const size_t take =
          std::min(pending.size() - next,
                   static_cast<size_t>(meter_.remaining()));
      std::vector<CellOutcome> outcomes;
      if (!replay_batch) {
        std::vector<WhatIfExecutor::CellRef> refs;
        refs.reserve(take);
        for (size_t j = next; j < next + take; ++j) {
          refs.push_back(WhatIfExecutor::CellRef{pending[j].query_id,
                                                 &config});
        }
        outcomes = executor_.EvaluateCellsWithRetry(refs);
      }
      for (size_t j = 0; j < take; ++j) {
        PendingCell& cell = pending[next + j];
        bool success;
        double cost = 0.0;
        if (replay_batch) {
          const CheckpointEvent e = PopReplayEvent(cell.query_id, positions);
          success = e.charged;
          cost = e.cost;
        } else {
          const CellOutcome& o = outcomes[j];
          success = o.status.ok();
          cost = o.cost;
          if (journal_enabled_) {
            RecordEvent(success, cell.query_id, positions,
                        success ? cost : 0.0, o.sim_seconds);
          }
        }
        if (success) {
          const bool charged = meter_.TryCharge(cell.query_id, config);
          BATI_CHECK(charged);  // the chunk never exceeds remaining budget
          index_.Add(cell.query_id, config, positions, cost);
          NoteEvaluated(cell.query_id, cost);
          if (governor_ != nullptr) {
            governor_->OnCharged(cell.quote, cost, floor_workload_cost_);
          }
          out[cell.slot] = cost;
          state[next + j] = kCharged;
        } else {
          out[cell.slot] = DegradeCell(cell.query_id, config);
          state[next + j] = kDegraded;
        }
      }
      next += take;
    }
  }
  // Stage 3 — duplicates copy their first occurrence's answer: a cache hit
  // when it was charged, the same degraded answer when it degraded, nullopt
  // when the budget ran out before it was attempted.
  for (const auto& [slot, pidx] : duplicates) {
    if (state[pidx] == kCharged) {
      meter_.RecordCacheHit();
      out[slot] = out[pending[pidx].slot];
    } else if (state[pidx] == kDegraded) {
      out[slot] = out[pending[pidx].slot];
    }
  }
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
    if (!st.ok()) {
      std::fprintf(stderr, "bati: checkpoint write failed: %s\n",
                   st.ToString().c_str());
      if (checkpoint_status_.ok()) checkpoint_status_ = st;
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
  return index_.Find(query_id, config) != nullptr;
}

std::optional<double> CostService::CachedCost(int query_id,
                                              const Config& config) const {
  if (config.empty()) return BaseCost(query_id);
  const double* cached = index_.Find(query_id, config);
  if (cached == nullptr) return std::nullopt;
  return *cached;
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
