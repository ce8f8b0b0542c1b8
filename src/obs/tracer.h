#ifndef BATI_OBS_TRACER_H_
#define BATI_OBS_TRACER_H_

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace bati {

/// One numeric span/event argument. Keys must be string literals (or
/// otherwise outlive the tracer) — arguments are stored by pointer so the
/// recording path never allocates.
struct TraceArg {
  const char* key = "";
  double value = 0.0;
};

/// One structured trace record. `name` and `category` must be string
/// literals: events are plain copyable values of fixed size, which is what
/// keeps the ring buffer's memory bounded and the hot path allocation-free.
///
/// Every record is double-stamped: on the real wall clock (microseconds
/// since the tracer's construction — the Chrome trace_event `ts` axis) and
/// on the engine's simulated what-if clock (the paper's Figure 2 time axis),
/// so a trace can be read either as "where did the wall time go" or "where
/// did the simulated budgeted time go".
struct TraceEvent {
  static constexpr int kMaxArgs = 4;

  const char* name = "";
  const char* category = "";
  /// Chrome trace_event phase: 'X' = complete span, 'i' = instant event.
  char phase = 'i';
  double wall_ts_us = 0.0;
  double wall_dur_us = 0.0;  ///< 'X' only
  double sim_ts_s = 0.0;
  double sim_dur_s = 0.0;  ///< 'X' only
  int tid = 0;
  TraceArg args[kMaxArgs];
  int num_args = 0;
};

/// A bounded-memory recorder of structured spans and events (tuner rounds,
/// what-if batches, retries, governor decisions, checkpoint writes...).
/// Records land in a fixed-capacity ring buffer: once full, the oldest
/// record is overwritten and counted in dropped() — a run can never grow the
/// trace beyond `capacity` events. Recording is mutex-serialized (a tracer
/// may be shared by concurrent sessions) and cheap enough to leave on for whole tuning runs; with no Tracer wired
/// up the instrumented code paths skip even the mutex.
///
/// Export formats:
///  * ToChromeJson() — Chrome trace_event "JSON array format" wrapped in an
///    object ({"traceEvents":[...]}), loadable in chrome://tracing and
///    Perfetto. Wall time is the `ts` axis; the simulated clock rides along
///    as per-event args.
///  * ToTextReport() — a plain-text per-(category, name) rollup.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 16384;

  explicit Tracer(size_t capacity = kDefaultCapacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Microseconds on the wall clock since this tracer was constructed.
  double NowUs() const;

  /// Records a completed span ('X').
  void Complete(const char* name, const char* category, double wall_start_us,
                double wall_dur_us, double sim_start_s, double sim_dur_s,
                std::initializer_list<TraceArg> args = {});

  /// Records an instant event ('i') stamped with the current wall clock.
  void Instant(const char* name, const char* category, double sim_ts_s,
               std::initializer_list<TraceArg> args = {});

  size_t capacity() const { return capacity_; }
  size_t size() const;
  /// Events overwritten because the ring was full.
  uint64_t dropped() const;
  /// The retained events, oldest first.
  std::vector<TraceEvent> Events() const;

  std::string ToChromeJson() const;
  std::string ToTextReport() const;
  /// Writes ToChromeJson() crash-consistently (write-temp-then-rename).
  Status WriteChromeJson(const std::string& path) const;

  /// Structurally validates a Chrome trace_event JSON document: a single
  /// object with a `traceEvents` array whose elements each carry the
  /// required name/cat/ph/ts/pid/tid fields (and dur for 'X' spans), all
  /// JSON well-formed. On success stores the event count in `num_events`
  /// (when non-null). Shared by the tests and the observability bench.
  static Status ValidateChromeJson(const std::string& json,
                                   size_t* num_events = nullptr);

 private:
  void Append(const TraceEvent& event);
  int TidLocked(std::thread::id id);

  const std::chrono::steady_clock::time_point epoch_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  /// Write cursor once the ring wrapped; ring_[next_] is the oldest event.
  size_t next_ = 0;
  bool wrapped_ = false;
  uint64_t dropped_ = 0;
  std::map<std::thread::id, int> tids_;
};

}  // namespace bati

#endif  // BATI_OBS_TRACER_H_
