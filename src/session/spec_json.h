#ifndef BATI_SESSION_SPEC_JSON_H_
#define BATI_SESSION_SPEC_JSON_H_

#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/status.h"
#include "session/tuning_session.h"

namespace bati {

/// Parses one flat JSON object into a RunSpec — the line format of
/// `bati_batch --specs FILE` (one spec per line, JSONL). Example:
///
///   {"workload":"tpch","algorithm":"mcts","budget":2000,"k":10,"seed":3,
///    "early_stop":true,"fault_rate":0.05}
///
/// Recognized keys (all optional except "workload"):
///   workload, algorithm     strings; same names as bati_tune
///   budget                  integer >= 0
///   k                       integer >= 1 (max indexes)
///   storage_gb              number >= 0; 0 disables the constraint
///   seed, fault_seed        non-negative integers
///   early_stop, realloc_budget, collect_metrics   booleans
///   skip_threshold, stop_threshold                numbers >= 0
///   stop_window             integer >= 1
///   fault_rate, fault_sticky, fault_spike         rates in [0, 1]
///   fault_spike_factor      number >= 1
///   retry_attempts          integer >= 1
///   retry_timeout           number >= 0 (simulated seconds; 0 disables)
///   checkpoint, resume, trace_out                 path strings
///
/// Validation is strict: an unknown key, a malformed value, an
/// out-of-range value, or an unknown algorithm name is an InvalidArgument
/// error, never a silent default (and never a crash deep inside MakeTuner).
/// On success `*spec` is a freshly defaulted RunSpec with the line's fields
/// applied: the governor switches and thresholds wired into
/// `spec->governor`, `spec->faults.enabled` set when any fault rate is
/// positive, and "algorithm" defaulted to "mcts" (the paper's setting)
/// when absent. This file is the only place that maps run options onto a
/// RunSpec; bati_tune's run flags arrive here as fields too.
Status ParseRunSpecJson(const std::string& line, RunSpec* spec);

/// The apply half of ParseRunSpecJson: validates already-read fields onto
/// a freshly defaulted RunSpec. A serve `register` event hands its
/// non-serve fields straight here, and so does bati_tune with the fields
/// AddRunSpecFlags() collected.
Status RunSpecFromFields(const std::vector<JsonField>& fields,
                         RunSpec* spec);

/// Registers bati_tune's run flags on `parser`, one per spec-line key and
/// spelled with '-' for '_' (`--fault-rate` is "fault_rate"). Each flag
/// appends its field to `*fields` for RunSpecFromFields(), so the flags
/// take the spec line's names, bounds and wiring. The keys a command line
/// sets another way (collect_metrics, trace_out) get no flag.
void AddRunSpecFlags(FlagParser* parser, std::vector<JsonField>* fields);

/// Serializes a spec back to the flat JSON object ParseRunSpecJson
/// accepts, emitting only fields that differ from a default RunSpec (plus
/// the mandatory "workload"). Round-trips: parsing the output reproduces
/// the spec. Doubles are printed with enough digits to round-trip
/// bit-exactly, which makes the string usable as a deterministic identity
/// (the serve checkpoint stores tenant templates this way).
std::string RunSpecToJson(const RunSpec& spec);

/// The output line for a spec that failed to run,
/// `{"workload":"...","error":"..."}` — the same bytes from bati_batch and
/// from the fleet.
std::string RunErrorJson(const std::string& workload,
                         const std::string& message);

}  // namespace bati

#endif  // BATI_SESSION_SPEC_JSON_H_
