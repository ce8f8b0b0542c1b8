#include "whatif/cost_engine_stats.h"

#include <cstdio>

namespace bati {

std::string CostEngineStats::ToString() const {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "what-if calls=%lld (cache hits=%lld, batched=%lld), derived "
      "lookups=%lld (+%lld delta, %lld posting-free, %lld table walks), "
      "index entries=%lld "
      "(scanned=%lld, pruned=%lld), executor wall=%.3fs, "
      "simulated what-if=%.1fs",
      static_cast<long long>(what_if_calls),
      static_cast<long long>(cache_hits),
      static_cast<long long>(batched_cells),
      static_cast<long long>(derived_lookups),
      static_cast<long long>(delta_lookups),
      static_cast<long long>(delta_posting_free),
      static_cast<long long>(derived_table_walks),
      static_cast<long long>(index_entries),
      static_cast<long long>(index_scanned_entries),
      static_cast<long long>(index_pruned_entries), executor_wall_seconds,
      simulated_whatif_seconds);
  std::string out = buf;
  if (replayed_calls > 0) {
    std::snprintf(buf, sizeof(buf),
                  ", resumed: %lld budget units recovered from checkpoint",
                  static_cast<long long>(replayed_calls));
    out += buf;
  }
  if (degraded_cells > 0 || fault_transient_errors > 0 ||
      fault_sticky_failures > 0 || fault_timeouts > 0 || retry_attempts > 0) {
    std::snprintf(buf, sizeof(buf),
                  ", faults: degraded=%lld, transient=%lld, sticky=%lld, "
                  "timeout=%lld, retries=%lld",
                  static_cast<long long>(degraded_cells),
                  static_cast<long long>(fault_transient_errors),
                  static_cast<long long>(fault_sticky_failures),
                  static_cast<long long>(fault_timeouts),
                  static_cast<long long>(retry_attempts));
    out += buf;
  }
  if (governor_skipped_calls > 0 || governor_stop_round >= 0) {
    std::snprintf(buf, sizeof(buf),
                  ", governor: skipped=%lld (banked=%lld, realloc=%lld)",
                  static_cast<long long>(governor_skipped_calls),
                  static_cast<long long>(governor_banked_calls),
                  static_cast<long long>(governor_reallocated_calls));
    out += buf;
    if (governor_stop_round >= 0) {
      std::snprintf(buf, sizeof(buf), ", stopped at round %d (call %lld)",
                    governor_stop_round,
                    static_cast<long long>(governor_stop_calls));
      out += buf;
    }
  }
  return out;
}

std::string CostEngineStats::ToJson() const {
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "{\"what_if_calls\":%lld,\"cache_hits\":%lld,\"batched_cells\":%lld,"
      "\"derived_lookups\":%lld,\"delta_lookups\":%lld,"
      "\"delta_posting_free\":%lld,\"derived_table_walks\":%lld,"
      "\"index_entries\":%lld,\"index_scanned_entries\":%lld,"
      "\"index_pruned_entries\":%lld,\"lower_bound_lookups\":%lld,"
      "\"executor_wall_seconds\":%.6f,"
      "\"simulated_whatif_seconds\":%.3f,"
      "\"degraded_cells\":%lld,\"fault_transient_errors\":%lld,"
      "\"fault_sticky_failures\":%lld,\"fault_timeouts\":%lld,"
      "\"retry_attempts\":%lld,"
      "\"governor_skipped_calls\":%lld,\"governor_banked_calls\":%lld,"
      "\"governor_reallocated_calls\":%lld,\"governor_stop_round\":%d,"
      "\"governor_stop_calls\":%lld}",
      static_cast<long long>(what_if_calls),
      static_cast<long long>(cache_hits),
      static_cast<long long>(batched_cells),
      static_cast<long long>(derived_lookups),
      static_cast<long long>(delta_lookups),
      static_cast<long long>(delta_posting_free),
      static_cast<long long>(derived_table_walks),
      static_cast<long long>(index_entries),
      static_cast<long long>(index_scanned_entries),
      static_cast<long long>(index_pruned_entries),
      static_cast<long long>(lower_bound_lookups), executor_wall_seconds,
      simulated_whatif_seconds,
      static_cast<long long>(degraded_cells),
      static_cast<long long>(fault_transient_errors),
      static_cast<long long>(fault_sticky_failures),
      static_cast<long long>(fault_timeouts),
      static_cast<long long>(retry_attempts),
      static_cast<long long>(governor_skipped_calls),
      static_cast<long long>(governor_banked_calls),
      static_cast<long long>(governor_reallocated_calls),
      governor_stop_round, static_cast<long long>(governor_stop_calls));
  return buf;
}

}  // namespace bati
