#!/usr/bin/env bash
# Launch gate for the execution engine: run the toy workload end to end
# through the real column store + B+-tree executor and assert that
#
#   1. every executed configuration produces row-count-exact results
#      against the scalar reference executor (validation on by default,
#      bati_exec exits 1 on any mismatch),
#   2. the combined Spearman rank correlation between what-if cost
#      ordering and measured wall-clock is at least 0.6 across >= 3
#      executed configurations (we run 8),
#   3. the exec.* operator counters show real index work happened.
#
#   tools/run_exec_smoke.sh [build-dir]    # default: build

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-build}"
exec_cli="${repo_root}/${build}/tools/bati_exec"

if [[ ! -x "${exec_cli}" ]]; then
  echo "error: ${exec_cli} not built" >&2
  exit 2
fi

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

echo "==> exec smoke: toy correlation run (8 configs, floor 0.6)"
"${exec_cli}" --workload toy --configs 8 --samples 64 --reps 2 --passes 2 \
  --min-correlation 0.6 \
  --json "${workdir}/report.json" --metrics "${workdir}/metrics.json"

grep -q '"validated": true' "${workdir}/report.json"
grep -q '"spearman_combined"' "${workdir}/report.json"

# Real operators ran: trees were built and the index path produced seeks.
grep -q '"exec.trees.built"' "${workdir}/metrics.json"
grep -q '"exec.index.seeks"' "${workdir}/metrics.json"

echo "exec smoke: OK"
