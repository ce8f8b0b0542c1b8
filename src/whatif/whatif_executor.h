#ifndef BATI_WHATIF_WHATIF_EXECUTOR_H_
#define BATI_WHATIF_WHATIF_EXECUTOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "faults/fault_injector.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "optimizer/what_if.h"
#include "whatif/budget_meter.h"

namespace bati {

/// How the executor retries a what-if call that an injected fault made
/// fail. Backoff and timeout run on the *simulated* clock (the paper's
/// Figure 2 "time spent on what-if calls"): failed attempts and the waits
/// between them burn simulated seconds but never real wall time, and —
/// crucially for the budget semantics — a cell is charged against the
/// what-if budget only when an attempt finally succeeds.
struct RetryPolicy {
  /// Total attempts per cell (first try included). Must be >= 1.
  int max_attempts = 4;
  /// Simulated backoff before the second attempt; doubles (capped) after.
  double initial_backoff_seconds = 0.25;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 4.0;
  /// Per-attempt timeout on the simulated clock: an attempt whose simulated
  /// latency exceeds this fails with DeadlineExceeded after burning exactly
  /// the timeout. 0 disables the timeout.
  double call_timeout_seconds = 8.0;

  /// Simulated backoff after failed attempt `attempt` (1-based).
  double BackoffSeconds(int attempt) const;
  /// One-line rendering, stamped into run identities.
  std::string ToIdentityString() const;
};

/// The final result of evaluating one cell through the retry loop.
struct CellOutcome {
  /// Ok, Unavailable (transient or sticky fault on the last attempt), or
  /// DeadlineExceeded (last attempt timed out).
  Status status;
  /// The what-if cost; meaningful only when status.ok().
  double cost = 0.0;
  /// Simulated seconds burned by every attempt (latency or timeout) plus
  /// the backoffs between them.
  double sim_seconds = 0.0;
  /// Attempts made (1 when the first try succeeded).
  int attempts = 0;
  /// Failed attempts by kind; attempts == transient + sticky + timeouts
  /// + (status.ok() ? 1 : 0).
  int transient_faults = 0;
  int sticky_faults = 0;
  int timeout_faults = 0;
};

/// The execution layer of the cost engine: wraps the what-if optimizer and
/// owns configuration materialization, simulated-latency accounting (the
/// paper's Figure 2 "time spent on what-if calls"), real wall-clock
/// accounting for observability, and the retry/backoff loop around every
/// optimizer invocation — a single attempt that always succeeds when no
/// FaultInjector is configured.
///
/// The executor never meters anything itself: the CostService façade
/// charges the BudgetMeter for each successful outcome, in input order,
/// after Evaluate() returns (failed cells are never charged). Every cell,
/// batched or not, runs on the calling thread in input order: a simulated
/// what-if call costs well under a microsecond, which no thread hand-off
/// can beat. The executor owns no threads; parallelism lives a level up,
/// in concurrent sessions and fleet worker processes.
class WhatIfExecutor {
 public:
  /// `optimizer`, `workload`, `candidates` must outlive the executor.
  WhatIfExecutor(const WhatIfOptimizer* optimizer, const Workload* workload,
                 const std::vector<Index>* candidates);

  WhatIfExecutor(const WhatIfExecutor&) = delete;
  WhatIfExecutor& operator=(const WhatIfExecutor&) = delete;

  /// Arms fault injection: every evaluation consults `injector` (which must
  /// outlive the executor) and retries per `policy`. Must be called before
  /// the first evaluation.
  void ConfigureFaults(const FaultInjector* injector,
                       const RetryPolicy& policy);

  /// Wires the executor's observability instruments (either argument may be
  /// null; both must outlive the executor). Evaluations then record sampled
  /// per-cell and per-batch latency histograms and span/retry trace events
  /// — pure observation behind null-pointer guards, so an unwired executor
  /// runs the exact pre-observability code. Must be called before the first
  /// evaluation, like ConfigureFaults().
  void SetObservability(MetricsRegistry* metrics, Tracer* tracer);

  /// Materializes a configuration into concrete index definitions.
  std::vector<Index> Materialize(const Config& config) const;

  /// Evaluates the cells (query_ids[i], config) through the retry loop into
  /// outcomes[i]. `positions` must equal config.ToIndices(); the
  /// configuration is materialized once. Cells run and are accounted in
  /// input order on the calling thread. `batched` marks cells that arrived
  /// through a batched entry point: they count into batched_cells() and are
  /// observed as one whatif.batch span. Never touches the budget.
  void Evaluate(const Config& config, const std::vector<size_t>& positions,
                std::span<const int> query_ids,
                std::span<CellOutcome> outcomes, bool batched);

  /// Uncounted ground-truth cost of one query (evaluation only).
  double TrueCost(const Query& query,
                  const std::vector<Index>& materialized) const;

  /// Simulated seconds spent inside counted what-if calls so far.
  double simulated_seconds() const { return simulated_seconds_; }

  /// Credits simulated seconds recorded by a checkpoint's event journal
  /// while the cost engine replays a resumed run (the optimizer is not
  /// re-invoked, so the executor would otherwise lose the prefix's time).
  void AccumulateReplaySimSeconds(double seconds) {
    simulated_seconds_ += seconds;
  }

  /// Restores the fault counters recorded in a checkpoint. Replay never
  /// consults the fault injector, so a resumed run re-seeds the counters
  /// here and then accumulates live faults on top.
  void RestoreFaultCounters(int64_t transient, int64_t sticky,
                            int64_t timeouts, int64_t retries) {
    transient_faults_ = transient;
    sticky_faults_ = sticky;
    timeout_faults_ = timeouts;
    retry_attempts_ = retries;
  }

  /// Real wall-clock seconds spent inside the executor so far.
  double wall_seconds() const { return wall_seconds_; }

  /// Cells evaluated with `batched` set.
  int64_t batched_cells() const { return batched_cells_; }

  /// Retry-loop observability: failed attempts by kind, and retries (every
  /// attempt after a cell's first).
  int64_t transient_faults() const { return transient_faults_; }
  int64_t sticky_faults() const { return sticky_faults_; }
  int64_t timeout_faults() const { return timeout_faults_; }
  int64_t retry_attempts() const { return retry_attempts_; }

  /// Per-cell observations (wall and simulated-time histograms, the
  /// whatif.call span) are recorded for one cell in every
  /// (kObsSampleMask + 1): the clock reads and the tracer's mutex would
  /// otherwise dominate the micro-second simulated what-if call itself.
  /// Sampling is by an observation-only counter, so it can never feed back
  /// into the run. Batch- and round-level spans and the retry records are
  /// not sampled — they stay complete.
  static constexpr uint64_t kObsSampleMask = 15;

 private:
  /// The retry loop for one cell: a pure function of the cell and the fault
  /// schedule (plus the stateless optimizer). One call in
  /// (kObsSampleMask + 1) also records the per-cell observations, stamping
  /// the span at `sim_start` (the evaluation's simulated start).
  CellOutcome RunCellWithRetry(int query_id,
                               const std::vector<Index>& materialized,
                               uint64_t config_hash, double sim_start);
  /// Merges one outcome's counters into the executor totals (input order).
  void AccountOutcome(const CellOutcome& outcome);
  /// Batch-level observability: size/latency histograms plus a whatif.batch
  /// span covering the whole batch.
  void ObserveBatch(size_t cells, double wall, double sim_start);

  const WhatIfOptimizer* optimizer_;
  const Workload* workload_;
  const std::vector<Index>* candidates_;
  const FaultInjector* injector_ = nullptr;
  RetryPolicy retry_;
  // Observability instruments; all null (and every guard dead) until
  // SetObservability() wires them.
  Tracer* tracer_ = nullptr;
  LatencyHistogram* obs_cell_wall_us_ = nullptr;
  LatencyHistogram* obs_cell_sim_s_ = nullptr;
  LatencyHistogram* obs_batch_cells_ = nullptr;
  LatencyHistogram* obs_batch_wall_us_ = nullptr;
  LatencyHistogram* obs_retry_attempts_ = nullptr;
  /// Sampling counter for per-cell observations. Never read by engine logic.
  uint64_t obs_ticket_ = 0;
  double simulated_seconds_ = 0.0;
  double wall_seconds_ = 0.0;
  int64_t batched_cells_ = 0;
  int64_t transient_faults_ = 0;
  int64_t sticky_faults_ = 0;
  int64_t timeout_faults_ = 0;
  int64_t retry_attempts_ = 0;
};

}  // namespace bati

#endif  // BATI_WHATIF_WHATIF_EXECUTOR_H_
