#!/usr/bin/env bash
# Serve feedback-loop smoke: drives bati_serve with the execution-backed
# deployment signals over the toy workload and asserts the closed loop
# behaves:
#
# Default (deterministic) mode — the push gate:
#   * --signal exec-deterministic replays the same stream twice with
#     byte-identical output (operator-counter cost units are a pure
#     function of plan + store, so real execution cannot break the
#     daemon's reproducibility guarantee),
#   * a third replay at a different --parallelism matches too,
#   * signal verdicts actually ran against the engine (estimated:false
#     appears; exec.* operator counters are non-zero in --metrics),
#   * a configuration judged again re-prices plans already executed by
#     lookup (exec.plan_memo.hits > 0 in --metrics),
#   * a deploy of the deployed configuration (a second tenant's empty one)
#     is a no-change line with no signal provenance, exactly as under
#     --signal whatif,
#   * a drop-every-index deploy is rolled back on measured cost units.
#
# "measured" mode — the nightly leg:
#   * --signal measured (real wall-clock, pooled per-query minima over
#     --signal-reps interleaved repetitions) completes without crashing,
#   * the observed/what-if calibration ratio surfaces in --metrics as a
#     finite value in (0, inf) with the expected sample count.
#
#   tools/run_serve_feedback_smoke.sh [build-dir] [mode]
#     mode: deterministic (default) | measured

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-build}"
mode="${2:-deterministic}"
serve="${repo_root}/${build}/tools/bati_serve"

if [[ ! -x "${serve}" ]]; then
  echo "error: ${serve} not built" >&2
  exit 2
fi

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

# One register-tune, a handful of queries, the same operator deploy
# twice, a second tenant deploying its already-empty configuration, then
# the rollback drill: the drop-every-index deploy must regress on any
# execution-backed signal.
{
  printf '%s\n' \
    '{"type":"register","tenant":"toy0","workload":"toy","algorithm":"vanilla-greedy","budget":40,"tune":true}'
  for i in $(seq 0 7); do
    printf '{"type":"query","tenant":"toy0","query":%d}\n' "$((i % 2))"
  done
  printf '%s\n' \
    '{"type":"drain"}' \
    '{"type":"deploy","tenant":"toy0","config":"1"}' \
    '{"type":"deploy","tenant":"toy0","config":"1"}' \
    '{"type":"register","tenant":"toy1","workload":"toy"}' \
    '{"type":"deploy","tenant":"toy1","config":""}' \
    '{"type":"deploy","tenant":"toy0","config":""}'
} > "${workdir}/events.jsonl"

# Prints the named gauge's value from a metrics snapshot, or "missing".
gauge() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
print(snap.get("gauges", {}).get(sys.argv[2], "missing"))
EOF
}

case "${mode}" in
  deterministic)
    echo "==> serve feedback: exec-deterministic, two replays + parallelism 4"
    "${serve}" --signal exec-deterministic \
      --metrics "${workdir}/metrics.json" \
      < "${workdir}/events.jsonl" > "${workdir}/out1.jsonl"
    "${serve}" --signal exec-deterministic \
      < "${workdir}/events.jsonl" > "${workdir}/out2.jsonl"
    "${serve}" --signal exec-deterministic --parallelism 4 \
      < "${workdir}/events.jsonl" > "${workdir}/out3.jsonl"

    cmp "${workdir}/out1.jsonl" "${workdir}/out2.jsonl" || {
      echo "error: two exec-deterministic replays diverged" >&2
      exit 1
    }
    cmp "${workdir}/out1.jsonl" "${workdir}/out3.jsonl" || {
      echo "error: output depends on --parallelism under exec signal" >&2
      exit 1
    }
    grep -q '"signal":"exec-deterministic","estimated":false' \
      "${workdir}/out1.jsonl" || {
      echo "error: no full exec-signal evaluation ran (all fell back?)" >&2
      exit 1
    }
    grep -qxF \
      '{"type":"deploy","tenant":"toy1","action":"no-change","regression":0,"create":"","drop":""}' \
      "${workdir}/out1.jsonl" || {
      echo "error: a no-change deploy was judged by the signal:" >&2
      grep '"tenant":"toy1"' "${workdir}/out1.jsonl" >&2
      exit 1
    }
    tail -1 "${workdir}/out1.jsonl" \
      | grep -q '"action":"safety-rollback"' || {
      echo "error: drop-every-index deploy not rolled back on units:" >&2
      tail -1 "${workdir}/out1.jsonl" >&2
      exit 1
    }
    python3 - "${workdir}/metrics.json" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
counters = snap.get("counters", {})
executed = sum(v for k, v in counters.items()
               if k.startswith("exec.")
               and not k.startswith(("exec.trees", "exec.plan_memo")))
assert executed > 0, "exec.* operator counters all zero - engine never ran"
hits = counters.get("exec.plan_memo.hits", 0)
assert hits > 0, "repeated deploy re-executed every plan (no memo hits)"
EOF
    echo "serve feedback (deterministic): OK"
    ;;

  measured)
    echo "==> serve feedback: measured signal on toy (real wall-clock)"
    "${serve}" --signal measured --signal-reps 2 \
      --metrics "${workdir}/metrics.json" \
      < "${workdir}/events.jsonl" > "${workdir}/out.jsonl"

    samples="$(gauge "${workdir}/metrics.json" \
      serve.tenant.toy0.calibration_samples)"
    ratio="$(gauge "${workdir}/metrics.json" serve.tenant.toy0.calibration)"
    if [[ "${samples}" == "missing" || "${ratio}" == "missing" ]]; then
      echo "error: calibration gauges missing from --metrics" >&2
      exit 1
    fi
    python3 - "${ratio}" "${samples}" <<'EOF'
import math, sys
ratio, samples = float(sys.argv[1]), float(sys.argv[2])
assert samples >= 2, f"expected >= 2 calibration samples, got {samples}"
assert math.isfinite(ratio) and ratio > 0, \
    f"calibration ratio not in (0, inf): {ratio}"
EOF
    echo "serve feedback (measured): OK (calibration=${ratio}," \
      "samples=${samples})"
    ;;

  *)
    echo "error: unknown mode '${mode}' (deterministic|measured)" >&2
    exit 2
    ;;
esac
