#ifndef BATI_WHATIF_CHECKPOINT_H_
#define BATI_WHATIF_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace bati {

/// One entry of the cost engine's event journal: a what-if cell the engine
/// *attempted* — either charged against the budget and cached (`charged`)
/// or degraded to the derived cost after exhausting its retries. Cache
/// hits, governor skips, and budget-exhausted refusals are not journaled:
/// they are deterministic functions of the replayed state.
struct CheckpointEvent {
  bool charged = true;
  int query_id = -1;
  /// Round tag at attempt time (0 before the first BeginRound()).
  int round = 0;
  /// The evaluated what-if cost; meaningful only when `charged`.
  double cost = 0.0;
  /// Simulated seconds the attempt(s) burned, retries and backoff included.
  double sim_seconds = 0.0;
  /// The configuration's member positions, ascending (never empty: empty
  /// configurations are answered by the base cost, uncharged).
  std::vector<size_t> positions;

  bool operator==(const CheckpointEvent& other) const = default;
};

/// A crash-consistent snapshot of the cost engine at a BeginRound()
/// boundary. Resume rebuilds the engine by *deterministic replay*: the
/// tuner re-runs from its seed while the engine answers the journaled
/// attempts from the checkpoint instead of invoking the optimizer, so the
/// derived-cost cache, budget meter, governor, and improvement curve all
/// evolve exactly as in the original run — the head-of-line counters below
/// are the integrity check that the replay converged on the recorded state.
struct EngineCheckpoint {
  std::string identity;  ///< caller-supplied run identity, verified on resume
  int num_queries = 0;
  int num_candidates = 0;
  int64_t budget = 0;
  int round = 0;  ///< the BeginRound() value at capture (>= 1)
  int64_t calls_made = 0;
  int64_t cache_hits = 0;
  int64_t degraded_cells = 0;
  /// Cells that went through live batch execution up to the capture point.
  /// Replay answers journaled cells without the executor, so resume must
  /// restore this directly for a resumed run's stats (and result line) to
  /// match the clean run's byte for byte.
  int64_t batched_cells = 0;
  double sim_seconds = 0.0;
  // Fault-tolerance counters (all zero for fault-free runs). Replay never
  // consults the fault injector, so resume restores these directly.
  int64_t fault_transient = 0;
  int64_t fault_sticky = 0;
  int64_t fault_timeouts = 0;
  int64_t retry_attempts = 0;
  // Governor counters (all zero / -1 for ungoverned runs).
  int64_t governor_skipped = 0;
  int64_t governor_banked = 0;
  int64_t governor_reallocated = 0;
  int governor_stop_round = -1;
  int64_t governor_stop_calls = -1;
  /// Every attempted cell up to the capture point, in attempt order.
  std::vector<CheckpointEvent> events;
};

/// Serializes a checkpoint to its line-based text form (format v2). Costs
/// and simulated seconds are written as hexadecimal floats, so parsing
/// round-trips every double bit-exactly — a requirement for bit-identical
/// resume. The file sits in the common/durable envelope, whose
/// `checksum <crc32> <bytes>` line covers the whole body, so truncation or
/// bit corruption anywhere in the file is detected up front.
std::string SerializeCheckpoint(const EngineCheckpoint& ckpt);

/// Parses SerializeCheckpoint() output, validating the version + checksum
/// header first and then internal consistency (event counts against the
/// header counters, the simulated-seconds sum, position ordering and
/// ranges). Any truncated, garbled, or tampered input yields a clear
/// InvalidArgument — never a silently shortened journal.
StatusOr<EngineCheckpoint> ParseCheckpoint(const std::string& text);

/// Writes the checkpoint to `path` through the shared write-temp-then-
/// rename helper, so a crash mid-write never leaves a truncated file.
Status SaveCheckpoint(const EngineCheckpoint& ckpt, const std::string& path);

/// Reads and parses a checkpoint file.
StatusOr<EngineCheckpoint> LoadCheckpoint(const std::string& path);

}  // namespace bati

#endif  // BATI_WHATIF_CHECKPOINT_H_
