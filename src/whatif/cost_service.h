#ifndef BATI_WHATIF_COST_SERVICE_H_
#define BATI_WHATIF_COST_SERVICE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "budget/governor.h"
#include "common/bitset.h"
#include "common/status.h"
#include "faults/fault_injector.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "optimizer/what_if.h"
#include "storage/index.h"
#include "whatif/budget_meter.h"
#include "whatif/checkpoint.h"
#include "whatif/cost_engine_stats.h"
#include "whatif/derived_cost_index.h"
#include "whatif/whatif_executor.h"
#include "workload/query.h"

namespace bati {

/// Everything configurable about the cost engine beyond its required
/// collaborators. All defaults off: a CostEngineOptions{}-constructed
/// service is bit-identical to the pre-fault-tolerance engine.
struct CostEngineOptions {
  /// Budget governor (skipping / early stopping), src/budget/.
  BudgetGovernorOptions governor;
  /// Injected what-if failures, src/faults/. With `faults.enabled` the
  /// executor's retry/backoff loop consults the fault schedule; a cell that
  /// exhausts its retries is never charged and is answered with the derived
  /// cost d(q, C) — the same degradation a governor skip uses — so tuners
  /// run unmodified.
  FaultOptions faults;
  /// Retry/backoff parameters; consulted only when faults are enabled.
  RetryPolicy retry;
  /// When non-empty, the engine writes a crash-consistent checkpoint to
  /// this path at every BeginRound() boundary (write-temp-then-rename).
  std::string checkpoint_path;
  /// When true, the engine additionally keeps every round checkpoint
  /// serialized in memory (captured_checkpoints()) — the property tests'
  /// way of visiting all crash points without touching the filesystem.
  bool capture_checkpoints = false;
  /// Free-form identity of the run (workload, algorithm, seed, budget,
  /// fault and retry options...). Stamped into checkpoints and verified on
  /// resume, so a checkpoint cannot silently resume a different run.
  std::string run_identity;
  /// Observability sinks (non-owning; must outlive the service). When wired
  /// the engine records latency histograms, counters, and structured spans
  /// across every layer; when null (the default) every instrumentation site
  /// is a dead pointer guard and runs are bit-identical to an unobserved
  /// engine — observation never feeds back into costs, clocks, or
  /// decisions.
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  /// Ignored: the executor evaluates every cell on the calling thread. Kept
  /// only so the frozen perfbench driver, which still assigns it, builds;
  /// nothing reads it.
  int whatif_pool_size = 0;
};

/// Budget-metered access to the what-if optimizer, with caching and cost
/// derivation (paper Section 3.1). All tuners consume costs exclusively
/// through this service, which is a thin façade over the layered cost
/// engine:
///
///  * BudgetMeter — counting, exhaustion, and the layout trace (paper
///    Definition 1);
///  * WhatIfExecutor — optimizer invocation, materialization, simulated
///    latency, the retry loop, and batch evaluation on the calling thread;
///  * DerivedCostIndex — the what-if cache (one table entry per evaluated
///    configuration) plus posting lists answering Equation-1 subset minima
///    incrementally;
///  * BudgetGovernor (optional, src/budget/) — a policy layer between the
///    tuners and the meter that may skip provably-bounded what-if calls
///    (answering with the derived cost, for free) and halt tuning early
///    once the projected remaining improvement is negligible. Disabled by
///    default; an ungoverned run is bit-identical to the pre-governor
///    engine.
///
/// The classic entry points:
///
///  * WhatIfCost() — a counted what-if call; served from cache for free,
///    otherwise consumes one unit of budget; fails (nullopt) when the budget
///    is exhausted.
///  * DerivedCost() — d(q, C) = min over cached subsets S of C of c(q, S)
///    (Equation 1); always available because c(q, {}) is known.
///  * SingletonDerivedCost() — the Equation-2 restriction to singleton
///    subsets, used by the theory (Theorems 1-2) and by priors.
///
/// Batched and incremental entry points for hot paths:
///
///  * WhatIfCostMany() — semantics of a WhatIfCost() loop (identical
///    charging order, caching, and results) with the uncached cells of one
///    configuration materialized once and evaluated as one executor batch.
///  * DerivedCosts() — d(q, C) for every query at once.
///  * DerivedCostWithAdd() / DerivedCostDeltaAdd() — d(q, C ∪ {z}) through
///    the posting-list index, without rescanning the cache.
///
/// Base costs c(q, {}) are computed up front and are not charged against the
/// budget, matching the paper's budget allocation matrix whose rows range
/// over the 2^|I| - 1 non-empty configurations.
class CostService {
 public:
  /// `optimizer`, `workload`, `candidates` must outlive the service.
  /// `options` selects the governor, fault injection, retry policy and
  /// checkpointing; the defaults give the plain metered engine. With
  /// `options.governor.enabled`, uncached cells are quoted to the governor
  /// before charging (it may skip them, answering with the derived cost for
  /// free) and HasBudget() additionally turns false once the governor's
  /// early-stopping checker fires — which every tuner already handles as
  /// ordinary budget exhaustion.
  CostService(const WhatIfOptimizer* optimizer, const Workload* workload,
              const std::vector<Index>* candidates, int64_t budget,
              const CostEngineOptions& options = {});

  int num_queries() const { return workload_->num_queries(); }
  int num_candidates() const { return static_cast<int>(candidates_->size()); }
  int64_t budget() const { return meter_.budget(); }
  int64_t calls_made() const { return meter_.calls_made(); }
  int64_t remaining_budget() const { return meter_.remaining(); }
  bool HasBudget() const { return meter_.HasBudget() && !GovernorStopped(); }
  int64_t cache_hits() const { return meter_.cache_hits(); }

  /// Declares the start of the next tuner round (greedy iteration, MCTS
  /// episode, bandit/DQN round, DTA slice, relaxation step). Subsequent
  /// charged calls carry the new round tag in the layout trace, and the
  /// governor — when present — updates its improvement curve and evaluates
  /// early stopping at exactly these boundaries. Returns the 1-based round
  /// number. Behaviour-neutral for ungoverned runs.
  int BeginRound();

  /// As BeginRound(), additionally labelling the round for observability:
  /// when a tracer is wired, the span covering this round (closed at the
  /// next boundary or at FinishObservability()) carries `phase` as its name
  /// — e.g. "greedy.argmax_sweep", "mcts.episode". `phase` must be a string
  /// literal. Identical to BeginRound() when nothing is wired.
  int BeginRound(const char* phase);

  /// Closes the open round span and synchronizes the engine's cross-layer
  /// counters (EngineStats()) into the metrics registry. Idempotent; no-op
  /// when nothing is wired. Callers snapshotting the registry or exporting
  /// the trace should call this first.
  void FinishObservability();

  /// True once the governor's early-stopping checker has fired (always
  /// false for ungoverned runs).
  bool GovernorStopped() const {
    return governor_ != nullptr && governor_->ShouldStop();
  }

  /// The governor, when one was configured; nullptr otherwise.
  const BudgetGovernor* governor() const { return governor_.get(); }

  /// An empty configuration over the candidate universe.
  Config EmptyConfig() const { return Config(candidates_->size()); }

  /// Materializes a configuration into concrete index definitions.
  std::vector<Index> Materialize(const Config& config) const {
    return executor_.Materialize(config);
  }

  /// c(q, {}): the known base cost (never charged).
  double BaseCost(int query_id) const;

  /// Sum of base costs over the workload.
  double BaseWorkloadCost() const { return base_workload_cost_; }

  /// Counted what-if call for one (query, configuration) cell. Returns the
  /// cached cost for free if this cell was already evaluated; otherwise
  /// spends one budget unit. Returns nullopt iff the cell is unknown and
  /// the budget is exhausted (or the governor has stopped the run). A
  /// governed call the governor decides to skip returns the derived cost
  /// d(q, C) without charging — exactly the value the caller would fall
  /// back to on nullopt.
  std::optional<double> WhatIfCost(int query_id, const Config& config);

  /// Counted what-if calls for one configuration across many queries — the
  /// batched equivalent of calling WhatIfCost(query_ids[i], config) in
  /// order. Budget is charged sequentially in input order (a hard cap, same
  /// cells succeed/fail as the loop); uncached cells are evaluated
  /// concurrently by the executor. Results are identical to the loop, with
  /// one governed-run caveat: skip decisions quote the cache as of batch
  /// entry (a sequential loop would see cells cached earlier in the same
  /// batch), while the quote's budget state is advanced by the cells ahead
  /// of it in the batch, exactly as the loop would see it. Decisions stay
  /// deterministic either way.
  std::vector<std::optional<double>> WhatIfCostMany(
      const std::vector<int>& query_ids, const Config& config);

  /// True if c(query_id, config) is cached (what-if cost "known").
  bool IsKnown(int query_id, const Config& config) const;

  /// The cached what-if cost for a cell, if known; free introspection that
  /// never spends budget (tooling, trace export).
  std::optional<double> CachedCost(int query_id, const Config& config) const;

  /// Derived cost d(q, C) per Equation 1 (min over cached subsets).
  double DerivedCost(int query_id, const Config& config) const;

  /// d(q, C) for every query of the workload at once.
  std::vector<double> DerivedCosts(const Config& config) const;

  /// Derived workload cost d(W, C) = sum_q d(q, C).
  double DerivedWorkloadCost(const Config& config) const;

  /// d(q, C ∪ {pos}) computed incrementally from `current_derived` =
  /// d(q, C) via the posting-list index: only cached entries containing
  /// `pos` are probed. Bit-identical to DerivedCost(q, C.With(pos)).
  double DerivedCostWithAdd(int query_id, const Config& config, size_t pos,
                            double current_derived) const;

  /// The derived-cost change d(q, C ∪ {pos}) − d(q, C), a value <= 0.
  double DerivedCostDeltaAdd(int query_id, const Config& config,
                             size_t pos) const;

  /// Equation-2 derived cost: min over singletons {z} subset of C with known
  /// singleton what-if costs (and the base cost).
  double SingletonDerivedCost(int query_id, const Config& config) const;

  /// Percentage improvement eta(W, C) in [0, 100] computed with derived
  /// costs (Equation 4 with d() in place of cost()).
  double DerivedImprovement(const Config& config) const;

  /// Ground-truth improvement using real (uncounted) what-if costs; used
  /// only for *evaluating* final configurations, mirroring how the paper
  /// reports improvements in actual what-if cost.
  double TrueImprovement(const Config& config) const;

  /// Ground-truth workload cost (uncounted); evaluation only.
  double TrueWorkloadCost(const Config& config) const;

  /// The layout trace: every counted what-if call in issue order.
  const std::vector<LayoutEntry>& layout() const { return meter_.layout(); }

  /// Simulated seconds spent inside counted what-if calls so far (the
  /// paper's Figure 2 "time spent on what-if calls").
  double SimulatedWhatIfSeconds() const {
    return executor_.simulated_seconds();
  }

  /// The counting layer, for callers needing budget introspection.
  const BudgetMeter& meter() const { return meter_; }

  /// Snapshot of the engine's observability counters across all layers.
  CostEngineStats EngineStats() const;

  // ---- Fault tolerance and checkpoint/resume. ----

  /// True when fault injection is armed (options.faults.enabled).
  bool FaultsEnabled() const { return injector_ != nullptr; }

  /// Cells that exhausted their retries and were answered with the derived
  /// cost instead (never charged).
  int64_t degraded_cells() const { return degraded_cells_; }

  /// Arms resume from a parsed checkpoint. Must be called on a fresh
  /// service (no calls made, no rounds declared) constructed with the same
  /// shape, budget, and run identity the checkpoint records — the caller
  /// then re-runs the tuner from its seed, and the engine answers the
  /// checkpoint's journaled attempts in order instead of invoking the
  /// optimizer, rebuilding cache/meter/governor state exactly as the
  /// original run did. When BeginRound() reaches the checkpointed round the
  /// engine verifies the replayed counters against the recorded ones and
  /// goes live; the continued run is bit-identical to an uninterrupted one.
  Status ResumeFromCheckpoint(const EngineCheckpoint& ckpt);

  /// Loads `path` and arms resume from it.
  Status ResumeFromFile(const std::string& path);

  /// True while journaled attempts remain to be replayed.
  bool replaying() const { return replay_pos_ < replay_end_; }

  /// Snapshot of the engine as a checkpoint (requires checkpointing to be
  /// enabled via checkpoint_path or capture_checkpoints, which arm the
  /// event journal).
  EngineCheckpoint MakeCheckpoint() const;

  /// Serialized per-round checkpoints (capture_checkpoints only), index i
  /// holding the checkpoint taken at BeginRound() number i + 1.
  const std::vector<std::string>& captured_checkpoints() const {
    return captured_checkpoints_;
  }

  /// First error encountered while writing checkpoint files (writing is
  /// best-effort: the first failed write warns once on stderr and the run
  /// continues).
  const Status& checkpoint_status() const { return checkpoint_status_; }

 private:
  /// The one cell pipeline behind WhatIfCost() (a single cell) and
  /// WhatIfCostMany() (`batched`), for a non-empty `config`; writes each
  /// cell's answer to out[i] (left nullopt when the budget is exhausted or
  /// the governor has stopped the run). Three stages:
  ///  1. classify — cache hit, duplicate of an earlier pending cell,
  ///     governor stop/skip, or pending;
  ///  2. evaluate — the pending cells through the executor (or the journal
  ///     while replaying), in chunks no larger than the remaining budget;
  ///  3. commit — in input order, each chunk's outcomes (CommitCell()).
  void ResolveCells(std::span<const int> query_ids, const Config& config,
                    std::span<std::optional<double>> out, bool batched);

  /// Builds the governor's quote for one uncached cell: derived upper
  /// bound, clamped cost lower bound, and the budget state the cell sees
  /// behind `ahead` pending cells of its batch (capped at the budget).
  CellQuote MakeQuote(int query_id, const Config& config, int64_t ahead) const;

  /// Commits one evaluated cell: journals the attempt when `journal`, then
  /// on success charges it, caches it, folds it into the floor and reports
  /// it to the governor (at the meter's count before the charge); on
  /// failure degrades it. Returns the caller's answer.
  double CommitCell(const Config& config, const std::vector<size_t>& positions,
                    CellQuote& quote, const CellOutcome& outcome,
                    bool journal);

  /// Folds a freshly evaluated cell into the per-query optimistic floor
  /// (the governor's improvement-curve y axis).
  void NoteEvaluated(int query_id, double cost);

  /// Appends an attempt to the event journal (journaling runs only).
  void RecordEvent(bool charged, int query_id,
                   const std::vector<size_t>& positions, double cost,
                   double sim_seconds);

  /// Pops the next journaled attempt during replay as the cell's outcome,
  /// checking it matches the requested cell (any mismatch means the
  /// replayed tuner diverged from the original run — a corrupted checkpoint
  /// or a different binary) and crediting its simulated seconds to the
  /// executor.
  CellOutcome PopReplayEvent(int query_id,
                             const std::vector<size_t>& positions);

  /// Answers one cell with the derived cost after retries were exhausted.
  double DegradeCell(int query_id, const Config& config);

  /// Checks the replayed engine state against the checkpoint header when
  /// BeginRound() reaches the checkpointed round.
  void VerifyResumeState() const;

  /// Captures and persists a checkpoint at a BeginRound() boundary.
  void MaybeWriteCheckpoint();

  /// Round-boundary observability: closes the previous round's span and
  /// opens the next one under `phase` (nullptr defaults to "round").
  void ObserveRoundBoundary(const char* phase, int round);

  /// Emits the span for the currently open round, if any.
  void CloseRoundSpan();

  /// Records a governor skip decision into the trace.
  void TraceGovernorSkip(const CellQuote& quote);

  const WhatIfOptimizer* optimizer_;
  const Workload* workload_;
  const std::vector<Index>* candidates_;
  BudgetMeter meter_;
  WhatIfExecutor executor_;
  DerivedCostIndex index_;
  std::unique_ptr<BudgetGovernor> governor_;
  std::vector<double> base_costs_;
  double base_workload_cost_ = 0.0;
  /// Per-query minimum over cached cells (base cost before any), and its
  /// workload sum: the best workload cost the cache currently supports.
  std::vector<double> floor_costs_;
  double floor_workload_cost_ = 0.0;

  /// A pending cell of the pipeline: its out[] slot and governor quote
  /// (quote.query_id is the cell's query).
  struct PendingCell {
    size_t slot = 0;
    CellQuote quote;
  };
  /// ResolveCells() scratch, reused across calls so a single WhatIfCost()
  /// allocates nothing beyond the positions and the materialized
  /// configuration. pending_ids_ and outcomes_ run parallel to pending_;
  /// duplicates_ holds (out slot, pending index) pairs.
  std::vector<PendingCell> pending_;
  std::vector<int> pending_ids_;
  std::vector<CellOutcome> outcomes_;
  std::vector<std::pair<size_t, size_t>> duplicates_;

  // ---- Fault tolerance and checkpoint/resume state. ----
  CostEngineOptions options_;
  std::unique_ptr<FaultInjector> injector_;
  int64_t degraded_cells_ = 0;
  /// Journaling is armed whenever checkpoints can be taken; during replay
  /// the journal holds the checkpoint's events and grows again after the
  /// flip to live execution.
  bool journal_enabled_ = false;
  std::vector<CheckpointEvent> journal_;
  /// Replay cursor over journal_[replay_pos_, replay_end_); empty range
  /// means live execution.
  size_t replay_pos_ = 0;
  size_t replay_end_ = 0;
  /// The checkpoint header being resumed from (events cleared), kept for
  /// the flip-to-live verification at BeginRound(resume round).
  EngineCheckpoint resume_header_;
  bool resumed_ = false;
  bool pending_resume_verify_ = false;
  Status checkpoint_status_;
  std::vector<std::string> captured_checkpoints_;

  // ---- Observability state (inert when metrics_/tracer_ are null). ----
  /// Round spans/histograms are recorded for every one of the first
  /// kRoundFullDetail rounds, then for one round in (kRoundSampleMask + 1):
  /// greedy-family runs keep full per-round detail while episode-per-round
  /// tuners (thousands of rounds) only pay the span cost on a sample.
  static constexpr int kRoundFullDetail = 64;
  static constexpr unsigned kRoundSampleMask = 7;
  MetricsRegistry* metrics_ = nullptr;
  Tracer* tracer_ = nullptr;
  Counter* obs_rounds_ = nullptr;
  LatencyHistogram* obs_round_wall_us_ = nullptr;
  LatencyHistogram* obs_round_sim_s_ = nullptr;
  LatencyHistogram* obs_checkpoint_wall_us_ = nullptr;
  /// The open round span: name (nullptr when none), start stamps, number.
  const char* round_phase_ = nullptr;
  double round_wall_start_s_ = 0.0;
  double round_sim_start_s_ = 0.0;
  int round_number_ = 0;
  /// The governor's stop transition is traced exactly once.
  bool stop_traced_ = false;
};

}  // namespace bati

#endif  // BATI_WHATIF_COST_SERVICE_H_
