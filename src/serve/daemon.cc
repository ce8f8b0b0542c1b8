#include "serve/daemon.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/json.h"
#include "common/macros.h"
#include "common/strings.h"
#include "session/spec_json.h"

namespace bati {

namespace {

/// "%.10g" keeps output lines readable while staying deterministic: equal
/// doubles always render to equal bytes.
void AppendNumber(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  out->append(buf);
}

void AppendPositionsField(std::string* out, const char* key,
                          const std::vector<size_t>& positions) {
  out->append(",\"");
  out->append(key);
  out->append("\":\"");
  char buf[32];
  for (size_t i = 0; i < positions.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%zu", i == 0 ? "" : " ",
                  positions[i]);
    out->append(buf);
  }
  out->append("\"");
}

/// Appends the signal provenance of a lifecycle decision. Decisions judged
/// by the default what-if signal, and no-change decisions, which no signal
/// judged, emit nothing — the legacy what-if output stays byte-identical.
void AppendSignalFields(std::string* out,
                        const LifecycleDecision& decision) {
  if (decision.signal == SignalKind::kWhatIf) return;
  out->append(",\"signal\":\"");
  out->append(SignalKindName(decision.signal));
  out->append("\",\"estimated\":");
  out->append(decision.estimated ? "true" : "false");
  if (decision.estimated) {
    out->append(",\"calibration\":");
    AppendNumber(out, decision.calibration);
  } else {
    out->append(",\"deployed_cost\":");
    AppendNumber(out, decision.deployed_cost);
    out->append(",\"candidate_cost\":");
    AppendNumber(out, decision.candidate_cost);
  }
}

/// `options` with the engines' operator counters landing in `metrics`.
ExecSignalOptions CountingInto(ExecSignalOptions options,
                               MetricsRegistry* metrics) {
  options.metrics = metrics;
  return options;
}

bool ValidTenantName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
        c != '_' && c != '-') {
      return false;
    }
  }
  return true;
}

std::vector<std::string> SplitPayloadLines(const std::string& payload) {
  std::vector<std::string> lines = Split(payload, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

}  // namespace

const char* ServeStatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid-argument";
    case StatusCode::kNotFound:
      return "not-found";
    case StatusCode::kOutOfRange:
      return "out-of-range";
    case StatusCode::kFailedPrecondition:
      return "failed-precondition";
    case StatusCode::kUnimplemented:
      return "unimplemented";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kDeadlineExceeded:
      return "deadline-exceeded";
  }
  return "unknown";
}

ServeDaemon::ServeDaemon(const ServeOptions& options)
    : options_(options),
      engines_(CountingInto(options.signal_options, &metrics_)) {
  BATI_CHECK(options_.parallelism >= 1);
  SessionManagerOptions manager_options;
  manager_options.parallelism = options_.parallelism;
  manager_options.on_result = [this](const SessionResult& result) {
    {
      std::lock_guard<std::mutex> lock(results_mu_);
      results_.emplace(result.id, result);
    }
    results_cv_.notify_all();
  };
  manager_ = std::make_unique<SessionManager>(manager_options);
}

ServeDaemon::~ServeDaemon() {
  // Join the manager's workers before results_mu_/results_cv_ are
  // destroyed: the on_result callback notifies results_cv_, and the
  // members are declared in the opposite order.
  manager_.reset();
}

Counter* ServeDaemon::TenantCounter(const std::string& tenant,
                                    const char* what) {
  return metrics_.GetCounter("serve.tenant." + tenant + "." + what);
}

Status ServeDaemon::Resume() {
  if (options_.state_path.empty()) {
    return Status::InvalidArgument("resume requires a state path");
  }
  StatusOr<ServeCheckpoint> loaded =
      LoadServeCheckpoint(options_.state_path);
  if (!loaded.ok()) return loaded.status();
  return RestoreFromCheckpoint(*loaded);
}

Status ServeDaemon::RestoreFromCheckpoint(const ServeCheckpoint& ckpt) {
  // The checkpoint's signal kind is authoritative: the stream's decision
  // trail was produced under it, and switching signals mid-stream would
  // break resume-to-identical-state.
  options_.signal = ckpt.signal;
  for (const ServeTenantState& t : ckpt.tenants) {
    RunSpec spec;
    Status st = ParseRunSpecJson(t.spec_json, &spec);
    if (!st.ok()) {
      return Status::InvalidArgument("checkpoint tenant \"" + t.name +
                                     "\": " + st.message());
    }
    const WorkloadBundle* bundle =
        BundleRegistry::Global().TryGet(spec.workload);
    if (bundle == nullptr) {
      return Status::InvalidArgument("checkpoint tenant \"" + t.name +
                                     "\": unknown workload " +
                                     spec.workload);
    }
    auto tenant = std::make_unique<Tenant>(t.name, std::move(spec), bundle,
                                           t.queue_quota, t.budget_quota,
                                           options_.observer,
                                           options_.safety_bound);
    tenant->admission.Restore(t.pending, t.budget_used);
    for (size_t pos : t.deployed) {
      if (pos >= bundle->candidates.indexes.size()) {
        return Status::InvalidArgument("checkpoint tenant \"" + t.name +
                                       "\": deployed position out of range");
      }
    }
    tenant->lifecycle.Restore(t.deployed);
    if (!tenant->observer.Deserialize(SplitPayloadLines(t.observer_state))) {
      return Status::InvalidArgument("checkpoint tenant \"" + t.name +
                                     "\": malformed observer state");
    }
    tenant->generation = t.generation;
    tenant->calib_samples = t.calib_samples;
    tenant->calib_sum = t.calib_sum;
    if (tenant->calib_samples > 0) PublishCalibration(tenant.get());
    tenants_.emplace(t.name, std::move(tenant));
  }
  for (const ServePendingTune& p : ckpt.pending) {
    if (tenants_.find(p.tenant) == tenants_.end()) {
      return Status::InvalidArgument("checkpoint pending tune " +
                                     std::to_string(p.tune_id) +
                                     ": unknown tenant " + p.tenant);
    }
    PendingTune tune;
    tune.tune_id = p.tune_id;
    tune.manager_id = 0;
    tune.tenant = p.tenant;
    tune.origin = p.origin;
    tune.submit_clock = p.submit_clock;
    tune.reserved_budget = p.reserved_budget;
    tune.have_result = true;
    tune.failed = p.failed;
    tune.error = p.error;
    tune.positions = p.positions;
    tune.improvement = p.improvement;
    tune.calls_used = p.calls_used;
    tune.tune_seconds = p.tune_seconds;
    pending_.push_back(std::move(tune));
  }
  clock_ = ckpt.clock;
  skip_lines_ = ckpt.events_processed;
  next_tune_id_ = ckpt.next_tune_id;
  queries_ = ckpt.queries;
  tunes_submitted_ = ckpt.tunes_submitted;
  tunes_applied_ = ckpt.tunes_applied;
  errors_ = ckpt.errors;
  drift_retunes_ = ckpt.drift_retunes;
  shipped_ = ckpt.shipped;
  rollbacks_ = ckpt.rollbacks;
  return Status::Ok();
}

void ServeDaemon::ProcessLine(const std::string& line, std::string* out) {
  if (Trim(line).empty()) return;  // blank lines are not events
  ++events_processed_;
  if (events_processed_ <= skip_lines_) return;  // resume: already applied
  metrics_.GetCounter("serve.events")->Increment();

  ServeEvent event;
  Status st =
      ParseServeEventJson(line, static_cast<int>(events_processed_), &event);
  if (!st.ok()) {
    ++errors_;
    metrics_.GetCounter("serve.errors")->Increment();
    out->append("{\"type\":\"error\",\"line\":" +
                std::to_string(events_processed_) + ",\"code\":\"" +
                ServeStatusCodeName(st.code()) + "\",\"error\":\"" +
                JsonEscape(st.message()) + "\"}\n");
    return;
  }

  switch (event.type) {
    case ServeEventType::kQuery:
      HandleQuery(event, out);
      break;
    case ServeEventType::kRegister:
      HandleRegister(event, out);
      break;
    case ServeEventType::kTune:
      HandleTune(event, out);
      break;
    case ServeEventType::kDeploy:
      HandleDeploy(event, out);
      break;
    case ServeEventType::kAdvance:
      clock_ += event.seconds;
      out->append("{\"type\":\"advance\",\"clock\":");
      AppendNumber(out, clock_);
      out->append("}\n");
      ApplyMatured(/*force=*/false, out);
      break;
    case ServeEventType::kDrain: {
      const int64_t before = tunes_applied_;
      ApplyMatured(/*force=*/true, out);
      out->append("{\"type\":\"drain\",\"applied\":" +
                  std::to_string(tunes_applied_ - before) + ",\"clock\":");
      AppendNumber(out, clock_);
      out->append("}\n");
      break;
    }
  }
  MaybePeriodicCheckpoint();
}

/// Emits one structured error line for an event that failed validation or
/// admission, and counts it.
#define BATI_SERVE_EVENT_ERROR(out, status)                                 \
  do {                                                                      \
    ++errors_;                                                              \
    metrics_.GetCounter("serve.errors")->Increment();                       \
    (out)->append("{\"type\":\"error\",\"line\":" +                         \
                  std::to_string(events_processed_) + ",\"code\":\"" +      \
                  ServeStatusCodeName((status).code()) +                    \
                  "\",\"error\":\"" + JsonEscape((status).message()) + \
                  "\"}\n");                                                 \
  } while (0)

void ServeDaemon::HandleRegister(const ServeEvent& event, std::string* out) {
  if (!ValidTenantName(event.tenant)) {
    BATI_SERVE_EVENT_ERROR(
        out, Status::InvalidArgument(
                 "tenant names are [A-Za-z0-9._-]{1,64}, got \"" +
                 event.tenant + "\""));
    return;
  }
  if (tenants_.find(event.tenant) != tenants_.end()) {
    BATI_SERVE_EVENT_ERROR(
        out, Status::FailedPrecondition("tenant \"" + event.tenant +
                                        "\" is already registered"));
    return;
  }
  RunSpec spec = event.spec;
  const WorkloadBundle* bundle =
      BundleRegistry::Global().TryGet(spec.workload);
  if (bundle == nullptr) {
    BATI_SERVE_EVENT_ERROR(out, Status::NotFound("unknown workload \"" +
                                                 spec.workload + "\""));
    return;
  }
  // Serve owns checkpointing and tracing; per-run artifact paths from the
  // template would collide across the tenant's many runs.
  spec.checkpoint_path.clear();
  spec.resume_path.clear();
  spec.trace_path.clear();

  auto tenant = std::make_unique<Tenant>(
      event.tenant, std::move(spec), bundle, event.queue_quota,
      event.budget_quota, options_.observer, options_.safety_bound);
  Tenant* t = tenant.get();
  tenants_.emplace(event.tenant, std::move(tenant));

  std::string ack = "{\"type\":\"register\",\"tenant\":\"" + t->name +
                    "\",\"workload\":\"" + t->spec.workload +
                    "\",\"queries\":" +
                    std::to_string(t->bundle->workload.num_queries()) +
                    ",\"candidates\":" +
                    std::to_string(t->bundle->candidates.size());
  if (event.tune_on_register) {
    StatusOr<uint64_t> submitted = SubmitTune(t, t->spec, "register");
    if (submitted.ok()) {
      ack += ",\"tune\":" + std::to_string(*submitted);
    } else {
      ack += ",\"tune_error\":\"" +
             JsonEscape(submitted.status().message()) + "\"";
    }
  }
  ack += ",\"status\":\"ok\"}\n";
  out->append(ack);
}

void ServeDaemon::HandleQuery(const ServeEvent& event, std::string* out) {
  auto it = tenants_.find(event.tenant);
  if (it == tenants_.end()) {
    BATI_SERVE_EVENT_ERROR(out, Status::NotFound("unknown tenant \"" +
                                                 event.tenant + "\""));
    return;
  }
  Tenant* t = it->second.get();
  if (event.query_id >= t->bundle->workload.num_queries()) {
    BATI_SERVE_EVENT_ERROR(
        out, Status::OutOfRange(
                 "query " + std::to_string(event.query_id) +
                 " out of range for workload " + t->spec.workload + " (" +
                 std::to_string(t->bundle->workload.num_queries()) +
                 " queries)"));
    return;
  }

  clock_ += options_.tick_seconds;
  ++queries_;
  TenantCounter(t->name, "queries")->Increment();
  t->observer.Observe(event.query_id, event.weight);

  std::string ack = "{\"type\":\"query\",\"tenant\":\"" + t->name +
                    "\",\"query\":" + std::to_string(event.query_id) +
                    ",\"clock\":";
  AppendNumber(&ack, clock_);

  if (t->observer.DriftCheckDue()) {
    const double wall_start = tracer_.NowUs();
    const double score = t->observer.EvaluateDrift();
    tracer_.Complete("drift-check", "serve", wall_start,
                     tracer_.NowUs() - wall_start, clock_, 0.0,
                     {{"score", score}});
    ack += ",\"drift\":";
    AppendNumber(&ack, score);
    if (score > options_.observer.drift_threshold) {
      ++drift_retunes_;
      metrics_.GetCounter("serve.drift")->Increment();
      tracer_.Instant("drift-detected", "serve", clock_,
                      {{"score", score}});
      RunSpec spec = t->spec;
      spec.workload = RegisterDriftBundle(t);
      StatusOr<uint64_t> submitted = SubmitTune(t, spec, "drift");
      if (submitted.ok()) {
        ack += ",\"retune\":" + std::to_string(*submitted);
      } else {
        TenantCounter(t->name, "rejects")->Increment();
        metrics_.GetCounter("serve.rejects")->Increment();
        ack += ",\"retune_error\":\"" +
               JsonEscape(submitted.status().message()) + "\"";
      }
    }
  }
  ack += "}\n";
  out->append(ack);
  ApplyMatured(/*force=*/false, out);
}

void ServeDaemon::HandleTune(const ServeEvent& event, std::string* out) {
  auto it = tenants_.find(event.tenant);
  if (it == tenants_.end()) {
    BATI_SERVE_EVENT_ERROR(out, Status::NotFound("unknown tenant \"" +
                                                 event.tenant + "\""));
    return;
  }
  Tenant* t = it->second.get();
  RunSpec spec = t->spec;
  if (event.budget_override >= 0) spec.budget = event.budget_override;
  if (event.seed_override >= 0) {
    spec.seed = static_cast<uint64_t>(event.seed_override);
  }
  if (!event.algorithm_override.empty()) {
    spec.algorithm = event.algorithm_override;
  }
  StatusOr<uint64_t> submitted = SubmitTune(t, spec, "tune");
  if (!submitted.ok()) {
    TenantCounter(t->name, "rejects")->Increment();
    metrics_.GetCounter("serve.rejects")->Increment();
    BATI_SERVE_EVENT_ERROR(out, submitted.status());
    return;
  }
  out->append("{\"type\":\"tune\",\"tenant\":\"" + t->name +
              "\",\"id\":" + std::to_string(*submitted) +
              ",\"status\":\"ok\"}\n");
}

void ServeDaemon::HandleDeploy(const ServeEvent& event, std::string* out) {
  auto it = tenants_.find(event.tenant);
  if (it == tenants_.end()) {
    BATI_SERVE_EVENT_ERROR(out, Status::NotFound("unknown tenant \"" +
                                                 event.tenant + "\""));
    return;
  }
  Tenant* t = it->second.get();
  for (size_t pos : event.config) {
    if (pos >= t->bundle->candidates.indexes.size()) {
      BATI_SERVE_EVENT_ERROR(
          out, Status::OutOfRange(
                   "config position " + std::to_string(pos) +
                   " out of range (" +
                   std::to_string(t->bundle->candidates.indexes.size()) +
                   " candidates)"));
      return;
    }
  }
  const LifecycleDecision decision = Judge(t, "deploy", event.config);
  tracer_.Instant("lifecycle", "serve", clock_,
                  {{"regression", decision.regression},
                   {"shipped", decision.action ==
                                       LifecycleDecision::Action::kShipped
                                   ? 1.0
                                   : 0.0}});

  std::string ack = "{\"type\":\"deploy\",\"tenant\":\"" + t->name +
                    "\",\"action\":\"" +
                    LifecycleActionName(decision.action) +
                    "\",\"regression\":";
  AppendNumber(&ack, decision.regression);
  AppendSignalFields(&ack, decision);
  AppendPositionsField(&ack, "create", decision.created);
  AppendPositionsField(&ack, "drop", decision.dropped);
  ack += "}\n";
  out->append(ack);
}

StatusOr<uint64_t> ServeDaemon::SubmitTune(Tenant* tenant,
                                           const RunSpec& spec,
                                           const std::string& origin) {
  Status admitted = tenant->admission.Admit(spec.budget);
  if (!admitted.ok()) return admitted;

  PendingTune tune;
  tune.tune_id = next_tune_id_++;
  tune.tenant = tenant->name;
  tune.origin = origin;
  tune.submit_clock = clock_;
  tune.reserved_budget = spec.budget;
  tune.manager_id = manager_->Submit(spec);
  pending_.push_back(std::move(tune));

  ++tunes_submitted_;
  TenantCounter(tenant->name, "tunes")->Increment();
  metrics_.GetCounter("serve.tunes")->Increment();
  tracer_.Instant("tune-submitted", "serve", clock_,
                  {{"budget", static_cast<double>(spec.budget)}});
  // Drift is measured against the window this tune optimizes for.
  ResetReference(tenant);
  return pending_.back().tune_id;
}

std::string ServeDaemon::RegisterDriftBundle(Tenant* tenant) {
  const uint64_t generation = ++tenant->generation;
  const std::string name = "serve/" + tenant->name + "/g" +
                           std::to_string(generation);
  const std::vector<std::pair<int, double>> support =
      tenant->observer.WindowSupport();
  BATI_CHECK(!support.empty());

  auto bundle = std::make_unique<WorkloadBundle>();
  bundle->workload.name = name;
  bundle->workload.database = tenant->bundle->workload.database;
  // The sub-workload is the live window's support, renumbered 0..n-1. The
  // candidate universe stays the FULL universe (with per-query provenance
  // subset in support order) so recommended positions remain comparable
  // with the tenant's deployed configuration.
  int next_id = 0;
  for (const auto& [query_id, weight] : support) {
    (void)weight;  // support queries enter unweighted, each once
    Query query =
        tenant->bundle->workload.queries[static_cast<size_t>(query_id)];
    query.id = next_id++;
    bundle->workload.queries.push_back(std::move(query));
    bundle->candidates.per_query.push_back(
        tenant->bundle->candidates.per_query[static_cast<size_t>(
            query_id)]);
  }
  bundle->candidates.indexes = tenant->bundle->candidates.indexes;
  bundle->candidates.size_bytes = tenant->bundle->candidates.size_bytes;
  bundle->optimizer = tenant->bundle->optimizer;
  BundleRegistry::Global().RegisterDynamic(name, std::move(bundle));
  return name;
}

void ServeDaemon::ResetReference(Tenant* tenant) {
  if (tenant->observer.window_size() > 0) {
    tenant->observer.CaptureReference();
  } else {
    const int n = tenant->bundle->workload.num_queries();
    tenant->observer.SetReference(
        std::vector<double>(static_cast<size_t>(n), 1.0 / n));
  }
}

void ServeDaemon::ApplyMatured(bool force, std::string* out) {
  while (!pending_.empty()) {
    PendingTune& head = pending_.front();
    EnsureResult(&head);
    const double ready = head.submit_clock + head.tune_seconds;
    if (!force && ready > clock_) break;
    ApplyTune(&head, out);
    pending_.pop_front();
  }
}

void ServeDaemon::ApplyTune(PendingTune* tune, std::string* out) {
  auto it = tenants_.find(tune->tenant);
  BATI_CHECK(it != tenants_.end());  // tenants are never removed
  Tenant* t = it->second.get();
  t->admission.Settle(tune->reserved_budget,
                      tune->failed ? 0 : tune->calls_used);
  ++tunes_applied_;
  metrics_.GetCounter("serve.applied")->Increment();

  std::string line = "{\"type\":\"tune-result\",\"id\":" +
                     std::to_string(tune->tune_id) + ",\"tenant\":\"" +
                     tune->tenant + "\",\"origin\":\"" + tune->origin +
                     "\",\"clock\":";
  AppendNumber(&line, clock_);
  if (tune->failed) {
    line += ",\"status\":\"error\",\"error\":\"" +
            JsonEscape(tune->error) + "\"}\n";
    out->append(line);
    return;
  }

  const LifecycleDecision decision =
      Judge(t, tune->origin, tune->positions);
  tracer_.Instant("tune-applied", "serve", clock_,
                  {{"improvement", tune->improvement},
                   {"calls", static_cast<double>(tune->calls_used)},
                   {"regression", decision.regression}});

  line += ",\"improvement\":";
  AppendNumber(&line, tune->improvement);
  line += ",\"calls\":" + std::to_string(tune->calls_used);
  AppendPositionsField(&line, "config", tune->positions);
  line += ",\"action\":\"";
  line += LifecycleActionName(decision.action);
  line += "\",\"regression\":";
  AppendNumber(&line, decision.regression);
  AppendSignalFields(&line, decision);
  AppendPositionsField(&line, "create", decision.created);
  AppendPositionsField(&line, "drop", decision.dropped);
  line += "}\n";
  out->append(line);
}

LifecycleDecision ServeDaemon::Judge(Tenant* t, const std::string& origin,
                                     const std::vector<size_t>& candidate) {
  if (candidate == t->lifecycle.deployed()) {
    // No-change: the lifecycle answers without consulting a signal, so the
    // decision carries no provenance, counts no signal evaluation and adds
    // no calibration sample.
    return t->lifecycle.Apply(*t->bundle, {}, candidate, &whatif_);
  }
  const std::vector<std::pair<int, double>> window =
      t->observer.WindowSupport();
  LifecycleDecision decision;
  if (options_.signal == SignalKind::kWhatIf) {
    // The pre-signal-layer pathway, byte for byte: what-if costs,
    // calibration 1.0, no signal metrics.
    decision = t->lifecycle.Apply(*t->bundle, window, candidate, &whatif_);
  } else {
    metrics_.GetCounter("serve.signal.evals")->Increment();
    if (signal_ == nullptr) {
      if (options_.signal == SignalKind::kMeasured) {
        signal_ = std::make_unique<MeasuredSignal>(&engines_);
      } else {
        signal_ = std::make_unique<DeterministicExecSignal>(&engines_);
      }
    }
    // Drift re-tunes fire on every window shift — too often to pay for a
    // full execution-backed evaluation. They take the Wii-style cheap
    // stand-in: the derived what-if cost scaled by the tenant's running
    // observed/what-if ratio. Oversized stores fall back the same way.
    const bool estimate = origin == "drift";
    Status ready = Status::Ok();
    if (!estimate) {
      ready = signal_->Ready(*t->bundle);
      if (!ready.ok()) {
        metrics_.GetCounter("serve.signal.fallbacks")->Increment();
        tracer_.Instant("signal-fallback", "serve", clock_, {});
      }
    } else {
      metrics_.GetCounter("serve.signal.estimates")->Increment();
    }

    if (estimate || !ready.ok()) {
      const double calibration = t->calibration();
      decision = t->lifecycle.Apply(*t->bundle, window, candidate, &whatif_,
                                    calibration);
      decision.estimated = true;
      decision.calibration = calibration;
    } else {
      decision =
          t->lifecycle.Apply(*t->bundle, window, candidate, signal_.get());
      UpdateCalibration(t, decision);
    }
    decision.signal = options_.signal;
  }
  if (decision.action == LifecycleDecision::Action::kShipped) {
    ++shipped_;
    metrics_.GetCounter("serve.shipped")->Increment();
  } else if (decision.action == LifecycleDecision::Action::kRollback) {
    ++rollbacks_;
    metrics_.GetCounter("serve.rollbacks")->Increment();
  }
  return decision;
}

void ServeDaemon::UpdateCalibration(Tenant* t,
                                    const LifecycleDecision& decision) {
  const auto sample = [&](double observed, double whatif) {
    if (!(observed > 0.0) || !(whatif > 0.0)) return;
    const double ratio = observed / whatif;
    if (!std::isfinite(ratio)) return;
    t->calib_sum += ratio;
    ++t->calib_samples;
  };
  sample(decision.deployed_cost, decision.whatif_deployed_cost);
  sample(decision.candidate_cost, decision.whatif_candidate_cost);
  PublishCalibration(t);
}

void ServeDaemon::PublishCalibration(Tenant* t) {
  metrics_.GetGauge("serve.tenant." + t->name + ".calibration")
      ->Set(t->calibration());
  metrics_.GetGauge("serve.tenant." + t->name + ".calibration_samples")
      ->Set(static_cast<double>(t->calib_samples));
}

void ServeDaemon::EnsureResult(PendingTune* tune) {
  if (tune->have_result) return;
  BATI_CHECK(tune->manager_id != 0);
  SessionResult result;
  {
    std::unique_lock<std::mutex> lock(results_mu_);
    results_cv_.wait(lock, [this, tune] {
      return results_.find(tune->manager_id) != results_.end();
    });
    auto it = results_.find(tune->manager_id);
    result = std::move(it->second);
    results_.erase(it);
  }
  tune->have_result = true;
  if (!result.status.ok()) {
    tune->failed = true;
    tune->error = result.status.message();
  } else {
    tune->positions = result.outcome.config_positions;
    tune->improvement = result.outcome.true_improvement;
    tune->calls_used = result.outcome.calls_used;
    tune->tune_seconds =
        result.outcome.whatif_seconds + result.outcome.other_seconds;
  }
}

void ServeDaemon::EnsureAllResults() {
  for (PendingTune& tune : pending_) EnsureResult(&tune);
}

ServeCheckpoint ServeDaemon::BuildCheckpoint() {
  EnsureAllResults();
  ServeCheckpoint ckpt;
  ckpt.events_processed = std::max(events_processed_, skip_lines_);
  ckpt.clock = clock_;
  ckpt.next_tune_id = next_tune_id_;
  ckpt.queries = queries_;
  ckpt.tunes_submitted = tunes_submitted_;
  ckpt.tunes_applied = tunes_applied_;
  ckpt.errors = errors_;
  ckpt.drift_retunes = drift_retunes_;
  ckpt.shipped = shipped_;
  ckpt.rollbacks = rollbacks_;
  ckpt.signal = options_.signal;
  for (const auto& [name, tenant] : tenants_) {
    ServeTenantState t;
    t.name = name;
    t.spec_json = RunSpecToJson(tenant->spec);
    t.queue_quota = tenant->admission.queue_quota();
    t.budget_quota = tenant->admission.budget_quota();
    t.pending = tenant->admission.pending();
    t.budget_used = tenant->admission.budget_used();
    t.generation = tenant->generation;
    t.calib_samples = tenant->calib_samples;
    t.calib_sum = tenant->calib_sum;
    t.deployed = tenant->lifecycle.deployed();
    t.observer_state = tenant->observer.Serialize();
    ckpt.tenants.push_back(std::move(t));
  }
  for (const PendingTune& tune : pending_) {
    ServePendingTune p;
    p.tune_id = tune.tune_id;
    p.tenant = tune.tenant;
    p.origin = tune.origin;
    p.submit_clock = tune.submit_clock;
    p.reserved_budget = tune.reserved_budget;
    p.failed = tune.failed;
    p.error = tune.error;
    p.positions = tune.positions;
    p.improvement = tune.improvement;
    p.calls_used = tune.calls_used;
    p.tune_seconds = tune.tune_seconds;
    ckpt.pending.push_back(std::move(p));
  }
  return ckpt;
}

void ServeDaemon::MaybePeriodicCheckpoint() {
  if (options_.checkpoint_every <= 0 || options_.state_path.empty()) return;
  if (events_processed_ <= skip_lines_) return;
  if (events_processed_ % options_.checkpoint_every != 0) return;
  SaveServeCheckpoint(BuildCheckpoint(), options_.state_path);
}

void ServeDaemon::Finish(std::string* out) {
  ApplyMatured(/*force=*/true, out);
  if (!options_.state_path.empty()) {
    SaveServeCheckpoint(BuildCheckpoint(), options_.state_path);
  }
}

Status ServeDaemon::Shutdown() {
  EnsureAllResults();
  if (options_.state_path.empty()) return Status::Ok();
  return SaveServeCheckpoint(BuildCheckpoint(), options_.state_path);
}

std::string ServeDaemon::SummaryLine() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "serve: %zu tenants, %" PRId64 " queries, %" PRId64
                " tunes (%" PRId64 " applied, %" PRId64 " drift), %" PRId64
                " shipped, %" PRId64 " rollbacks, %" PRId64
                " errors, clock %.10g",
                tenants_.size(), queries_, tunes_submitted_, tunes_applied_,
                drift_retunes_, shipped_, rollbacks_, errors_, clock_);
  return buf;
}

}  // namespace bati
