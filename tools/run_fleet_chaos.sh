#!/usr/bin/env bash
# Chaos acceptance matrix for the fleet coordinator. The contract under
# test: whatever the chaos injector does to the workers — kill -9 mid-run,
# SIGSTOP stalls past the lease, garbled result frames — the fleet's
# output stays byte-identical to a clean sequential `bati_batch
# --canonical` over the same specs, at every parallelism level. A final
# leg SIGTERMs the coordinator itself mid-run and asserts that a
# `--resume` of the same state file converges on the identical bytes.
#
#   tools/run_fleet_chaos.sh [build-dir]    # default: build

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-build}"
batch="${repo_root}/${build}/tools/bati_batch"
fleet="${repo_root}/${build}/tools/bati_fleet"

for bin in "${batch}" "${fleet}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not built" >&2
    exit 2
  fi
done

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

specs="${workdir}/specs.jsonl"
for algorithm in vanilla-greedy two-phase-greedy autoadmin-greedy \
    dba-bandits no-dba dta relaxation mcts; do
  printf '{"workload":"toy","algorithm":"%s","budget":40,"k":3,"seed":7}\n' \
    "${algorithm}"
done > "${specs}"

echo "==> baseline: sequential bati_batch --canonical"
"${batch}" --specs "${specs}" --canonical --out "${workdir}/baseline.jsonl"

run_leg() {
  local name="$1"
  shift
  local out="${workdir}/${name}.jsonl"
  local state_dir="${workdir}/${name}.d"
  echo "==> ${name}"
  "${fleet}" --specs "${specs}" --out "${out}" \
    --state "${workdir}/${name}.state" --state-dir "${state_dir}" \
    --heartbeat-ms 20 --lease-timeout-ms 700 --max-attempts 10 "$@"
  if ! diff -u "${workdir}/baseline.jsonl" "${out}"; then
    echo "error: ${name} diverged from the sequential baseline" >&2
    exit 1
  fi
  rm -rf "${state_dir}" "${workdir}/${name}.state"
}

# Chaos matrix: each fault family alone, then all three together, at
# parallelism 1, 2, and 4. Seeds are fixed so every run is reproducible.
for workers in 1 2 4; do
  run_leg "kill-w${workers}" --workers "${workers}" \
    --chaos-seed 7 --chaos-kill 0.5
  run_leg "stall-w${workers}" --workers "${workers}" \
    --chaos-seed 11 --chaos-stall 0.4
  run_leg "garble-w${workers}" --workers "${workers}" \
    --chaos-seed 13 --chaos-garble 0.4
  run_leg "mixed-w${workers}" --workers "${workers}" \
    --chaos-seed 9 --chaos-kill 0.4 --chaos-stall 0.15 --chaos-garble 0.2
done

# Speculative re-dispatch: duplicate every in-flight task aggressively;
# first finisher wins and the loser is discarded, so the bytes must not
# change.
run_leg "speculate-w4" --workers 4 --straggler-ms 1 \
  --chaos-seed 5 --chaos-kill 0.3

echo "==> coordinator SIGTERM mid-run, then --resume converges"
state="${workdir}/interrupt.state"
out1="${workdir}/interrupt1.jsonl"
"${fleet}" --specs "${specs}" --out "${out1}" --workers 1 \
  --state "${state}" --heartbeat-ms 20 --lease-timeout-ms 700 &
pid=$!
# Wait for the first result line so the SIGTERM provably lands mid-run,
# then stop the coordinator; a clean interrupt exits 0.
for _ in $(seq 1 200); do
  [[ -s "${out1}" ]] && break
  sleep 0.05
done
if [[ ! -s "${out1}" ]]; then
  echo "error: coordinator produced no output before timeout" >&2
  kill -KILL "${pid}" 2>/dev/null || true
  exit 1
fi
kill -TERM "${pid}"
exit_code=0
wait "${pid}" || exit_code=$?
if [[ "${exit_code}" -ne 0 ]]; then
  echo "error: coordinator exited ${exit_code} on SIGTERM" >&2
  exit 1
fi
head -1 "${state}" | grep -q '^bati-fleet-state v2$'
sed -n 2p "${state}" | grep -Eq '^checksum [0-9a-f]{8} [0-9]+$'
out2="${workdir}/interrupt2.jsonl"
"${fleet}" --specs "${specs}" --out "${out2}" --workers 2 \
  --state "${state}" --resume --heartbeat-ms 20 --lease-timeout-ms 700
if ! diff -u "${workdir}/baseline.jsonl" "${out2}"; then
  echo "error: resumed run diverged from the sequential baseline" >&2
  exit 1
fi

echo "fleet chaos matrix: OK"
