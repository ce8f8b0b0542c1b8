#include "session/spec_json.h"

#include <climits>

#include "common/json.h"

namespace bati {

Status RunSpecFromFields(const std::vector<JsonField>& fields,
                         RunSpec* spec) {
  *spec = RunSpec();
  // Governor switches and threshold overrides, applied after the sweep.
  bool early_stop = false;
  bool realloc_budget = false;
  double skip_threshold = -1.0;
  double stop_threshold = -1.0;
  int64_t stop_window = 0;

  bool have_workload = false;
  for (const JsonField& value : fields) {
    const std::string& key = value.key;
    Status st;
    int64_t integer = 0;
    double num = 0.0;
    if (key == "workload") {
      st = WantString(value, &spec->workload);
      have_workload = st.ok() && !spec->workload.empty();
      if (st.ok() && !have_workload) {
        st = Status::InvalidArgument("\"workload\" must be non-empty");
      }
    } else if (key == "algorithm") {
      st = WantString(value, &spec->algorithm);
    } else if (key == "budget") {
      st = WantInt(value, 0, INT64_MAX, &spec->budget);
    } else if (key == "k") {
      st = WantInt(value, 1, INT_MAX, &integer);
      if (st.ok()) spec->max_indexes = static_cast<int>(integer);
    } else if (key == "storage_gb") {
      st = WantNumber(value, 0.0, 1e12, &num);
      if (st.ok()) spec->max_storage_bytes = num * 1e9;
    } else if (key == "seed") {
      st = WantInt(value, 0, INT64_MAX, &integer);
      if (st.ok()) spec->seed = static_cast<uint64_t>(integer);
    } else if (key == "early_stop") {
      st = WantBool(value, &early_stop);
    } else if (key == "realloc_budget") {
      st = WantBool(value, &realloc_budget);
    } else if (key == "skip_threshold") {
      st = WantNumber(value, 0.0, 1e12, &skip_threshold);
    } else if (key == "stop_threshold") {
      st = WantNumber(value, 0.0, 1e12, &stop_threshold);
    } else if (key == "stop_window") {
      st = WantInt(value, 1, INT64_MAX, &stop_window);
    } else if (key == "fault_rate") {
      st = WantNumber(value, 0.0, 1.0, &spec->faults.transient_rate);
    } else if (key == "fault_sticky") {
      st = WantNumber(value, 0.0, 1.0, &spec->faults.sticky_rate);
    } else if (key == "fault_spike") {
      st = WantNumber(value, 0.0, 1.0, &spec->faults.spike_rate);
    } else if (key == "fault_spike_factor") {
      st = WantNumber(value, 1.0, 1e12, &spec->faults.spike_factor);
    } else if (key == "fault_seed") {
      st = WantInt(value, 0, INT64_MAX, &integer);
      if (st.ok()) spec->faults.seed = static_cast<uint64_t>(integer);
    } else if (key == "retry_attempts") {
      st = WantInt(value, 1, INT_MAX, &integer);
      if (st.ok()) spec->retry.max_attempts = static_cast<int>(integer);
    } else if (key == "retry_timeout") {
      st = WantNumber(value, 0.0, 1e12,
                      &spec->retry.call_timeout_seconds);
    } else if (key == "collect_metrics") {
      st = WantBool(value, &spec->collect_metrics);
    } else if (key == "checkpoint") {
      st = WantString(value, &spec->checkpoint_path);
    } else if (key == "resume") {
      st = WantString(value, &spec->resume_path);
    } else if (key == "trace_out") {
      st = WantString(value, &spec->trace_path);
    } else if (key == "signal") {
      st = WantString(value, &spec->deploy_signal);
      // The valid names mirror src/signal's ParseSignalKind — the session
      // layer sits below the signal layer and cannot call it, so the list
      // is spelled out here (cross-checked by a test).
      if (st.ok() && !spec->deploy_signal.empty() &&
          spec->deploy_signal != "whatif" &&
          spec->deploy_signal != "exec-deterministic" &&
          spec->deploy_signal != "measured") {
        st = Status::InvalidArgument("unknown signal \"" +
                                     spec->deploy_signal + "\"");
      }
    } else {
      st = Status::InvalidArgument("unknown key \"" + key + "\"");
    }
    if (!st.ok()) return st;
  }
  if (!have_workload) {
    return Status::InvalidArgument("\"workload\" is required");
  }
  if (spec->algorithm.empty()) {
    spec->algorithm = "mcts";  // bati_tune's default; never leave a spec
                               // that would CHECK-fail inside MakeTuner
  } else if (!IsKnownAlgorithm(spec->algorithm)) {
    return Status::InvalidArgument("unknown algorithm \"" +
                                   spec->algorithm + "\"");
  }
  spec->faults.enabled = spec->faults.transient_rate > 0.0 ||
                         spec->faults.sticky_rate > 0.0 ||
                         spec->faults.spike_rate > 0.0;
  if (early_stop || realloc_budget) {
    spec->governor.enabled = true;
    spec->governor.early_stop = early_stop;
    spec->governor.skip_what_if = realloc_budget;
    if (skip_threshold >= 0.0) {
      spec->governor.realloc.skip_rel_threshold = skip_threshold;
    }
    if (stop_threshold >= 0.0) {
      spec->governor.stop.abs_threshold_pct = stop_threshold;
    }
    if (stop_window > 0) spec->governor.stop.window_calls = stop_window;
  }
  return Status::Ok();
}

Status ParseRunSpecJson(const std::string& line, RunSpec* spec) {
  std::vector<JsonField> fields;
  fields.reserve(8);
  const Status st = ReadFlatObject(line, "spec line", &fields);
  return st.ok() ? RunSpecFromFields(fields, spec) : st;
}

void AddRunSpecFlags(FlagParser* parser, std::vector<JsonField>* fields) {
  for (const char* key : {"workload", "algorithm", "checkpoint", "resume"}) {
    parser->AddField(key, JsonKind::kString, fields);
  }
  for (const char* key : {"early-stop", "realloc-budget"}) {
    parser->AddField(key, JsonKind::kBool, fields);
  }
  for (const char* key :
       {"budget", "k", "storage-gb", "seed", "skip-threshold",
        "stop-threshold", "stop-window", "fault-rate", "fault-sticky",
        "fault-spike", "fault-spike-factor", "fault-seed", "retry-attempts",
        "retry-timeout"}) {
    parser->AddField(key, JsonKind::kNumber, fields);
  }
}

std::string RunSpecToJson(const RunSpec& spec) {
  const RunSpec def;  // emit only what differs from a default spec
  JsonObjectWriter out;
  out.String("workload", spec.workload);
  if (!spec.algorithm.empty()) {
    out.String("algorithm", spec.algorithm);
  }
  if (spec.budget != def.budget) out.Int("budget", spec.budget);
  if (spec.max_indexes != def.max_indexes) {
    out.Int("k", spec.max_indexes);
  }
  if (spec.max_storage_bytes != def.max_storage_bytes) {
    out.Double("storage_gb", spec.max_storage_bytes / 1e9);
  }
  if (spec.seed != def.seed) {
    out.Int("seed", static_cast<int64_t>(spec.seed));
  }
  if (spec.governor.enabled) {
    if (spec.governor.early_stop) out.Bool("early_stop", true);
    if (spec.governor.skip_what_if) out.Bool("realloc_budget", true);
    out.Double("skip_threshold", spec.governor.realloc.skip_rel_threshold);
    out.Double("stop_threshold", spec.governor.stop.abs_threshold_pct);
    if (spec.governor.stop.window_calls >= 1) {
      out.Int("stop_window", spec.governor.stop.window_calls);
    }
  }
  if (spec.faults.transient_rate != def.faults.transient_rate) {
    out.Double("fault_rate", spec.faults.transient_rate);
  }
  if (spec.faults.sticky_rate != def.faults.sticky_rate) {
    out.Double("fault_sticky", spec.faults.sticky_rate);
  }
  if (spec.faults.spike_rate != def.faults.spike_rate) {
    out.Double("fault_spike", spec.faults.spike_rate);
  }
  if (spec.faults.spike_factor != def.faults.spike_factor) {
    out.Double("fault_spike_factor", spec.faults.spike_factor);
  }
  if (spec.faults.seed != def.faults.seed) {
    out.Int("fault_seed", static_cast<int64_t>(spec.faults.seed));
  }
  if (spec.retry.max_attempts != def.retry.max_attempts) {
    out.Int("retry_attempts", spec.retry.max_attempts);
  }
  if (spec.retry.call_timeout_seconds != def.retry.call_timeout_seconds) {
    out.Double("retry_timeout", spec.retry.call_timeout_seconds);
  }
  if (spec.collect_metrics) out.Bool("collect_metrics", true);
  if (!spec.checkpoint_path.empty()) {
    out.String("checkpoint", spec.checkpoint_path);
  }
  if (!spec.resume_path.empty()) {
    out.String("resume", spec.resume_path);
  }
  if (!spec.trace_path.empty()) {
    out.String("trace_out", spec.trace_path);
  }
  if (!spec.deploy_signal.empty()) {
    out.String("signal", spec.deploy_signal);
  }
  return out.Finish();
}

std::string RunErrorJson(const std::string& workload,
                         const std::string& message) {
  return JsonObjectWriter()
      .String("workload", workload)
      .String("error", message)
      .Finish();
}

}  // namespace bati
