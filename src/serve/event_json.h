#ifndef BATI_SERVE_EVENT_JSON_H_
#define BATI_SERVE_EVENT_JSON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "session/tuning_session.h"

namespace bati {

/// The kinds of event a serve stream can carry, one flat JSON object per
/// line (JSONL over stdin or a pipe — the same wire shape as bati_batch
/// specs, read by the same common/json.h reader).
enum class ServeEventType {
  /// One live query observation: `{"type":"query","tenant":"t","query":3}`
  /// with an optional positive `"weight"` (default 1). Feeds the tenant's
  /// sliding-window workload observer and advances the simulated clock.
  kQuery,
  /// Tenant registration carrying the tuning template:
  /// `{"type":"register","tenant":"t","workload":"tpch","algorithm":
  /// "vanilla-greedy","budget":400,...}`. Every key that is not a serve
  /// key (`type`, `tenant`, `queue_quota`, `budget_quota`, `tune`) is
  /// handed to session/spec_json.h's strict RunSpecFromFields, so a template
  /// accepts exactly the bati_batch spec vocabulary. `"tune":true` also
  /// submits an initial tuning run at registration.
  kRegister,
  /// An explicit tuning request for a registered tenant, subject to
  /// admission control: `{"type":"tune","tenant":"t"}` with optional
  /// `"budget"`, `"seed"`, and `"algorithm"` overrides of the template.
  kTune,
  /// An operator-proposed configuration (candidate positions, space-
  /// separated): `{"type":"deploy","tenant":"t","config":"1 4 7"}`. Runs
  /// through the same safety-guarded lifecycle evaluation as a tuned
  /// configuration — the injection point for regression drills.
  kDeploy,
  /// Advances the simulated clock: `{"type":"advance","seconds":30}`.
  kAdvance,
  /// Applies every pending tuning result now: `{"type":"drain"}`.
  kDrain,
};

/// One parsed serve event. Only the fields of the event's type are
/// meaningful; everything else keeps its default.
struct ServeEvent {
  ServeEventType type = ServeEventType::kQuery;
  std::string tenant;

  // kQuery
  int query_id = -1;
  double weight = 1.0;

  // kRegister
  RunSpec spec;
  int64_t queue_quota = 4;
  int64_t budget_quota = 0;  ///< total what-if units; 0 = unlimited
  bool tune_on_register = false;

  // kTune overrides; negative / empty = inherit from the template.
  int64_t budget_override = -1;
  int64_t seed_override = -1;
  std::string algorithm_override;

  // kDeploy
  std::vector<size_t> config;

  // kAdvance
  double seconds = 0.0;
};

/// Parses one JSONL stream line into a ServeEvent. Validation is strict in
/// the style of ParseRunSpecJson: unknown event types, unknown keys for the
/// event's type, wrong-typed or out-of-range values, and trailing garbage
/// are all InvalidArgument errors prefixed with "line N: " — the daemon
/// answers them with a structured error line and keeps serving.
Status ParseServeEventJson(const std::string& line, int lineno,
                           ServeEvent* event);

}  // namespace bati

#endif  // BATI_SERVE_EVENT_JSON_H_
