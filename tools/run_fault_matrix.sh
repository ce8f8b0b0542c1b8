#!/usr/bin/env bash
# Fault-tolerance acceptance matrix: sweeps injected what-if fault rates
# across every tuning algorithm on the toy workload and asserts that
#
#   1. every run completes with exit 0 (no crashes at any fault rate),
#   2. improvement regression versus the fault-free run stays bounded,
#   3. malformed CLI input is rejected with a clear error and exit 2,
#   4. a run killed at a crash point resumes to a bit-identical result.
#
#   tools/run_fault_matrix.sh [build-dir]    # default: build/
#
# Uses only the toy workload so the full matrix runs in seconds.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
jobs="$(nproc 2>/dev/null || echo 4)"

if [[ ! -x "${build_dir}/tools/bati_tune" ]]; then
  echo "==> building bati_tune in ${build_dir}"
  cmake -B "${build_dir}" -S "${repo_root}" >/dev/null
  cmake --build "${build_dir}" -j "${jobs}" --target bati_tune >/dev/null
fi
tune="${build_dir}/tools/bati_tune"

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

algorithms=(vanilla-greedy two-phase-greedy autoadmin-greedy dba-bandits
            no-dba dta relaxation mcts)
rates=(0.02 0.05 0.10 0.20)
# Allowed absolute drop in improvement percentage points at any fault rate.
max_regression=20.0

json_field() {  # json_field FILE KEY -> numeric value of "KEY":<num>
  sed -n "s/.*\"$2\":\([-0-9.][0-9.eE+-]*\).*/\1/p" "$1" | head -n 1
}

echo "==> fault matrix: ${#algorithms[@]} algorithms x ${#rates[@]} rates (toy)"
failures=0
for algo in "${algorithms[@]}"; do
  "${tune}" --workload toy --algorithm "${algo}" --budget 60 --k 3 \
    --seed 7 --json > "${workdir}/base.json"
  base_imp="$(json_field "${workdir}/base.json" improvement)"
  for rate in "${rates[@]}"; do
    out="${workdir}/${algo}-${rate}.json"
    if ! "${tune}" --workload toy --algorithm "${algo}" --budget 60 --k 3 \
        --seed 7 --fault-rate "${rate}" --fault-sticky 0.02 \
        --fault-spike 0.05 --fault-seed 11 --json > "${out}"; then
      echo "FAIL ${algo} rate=${rate}: non-zero exit" >&2
      failures=$((failures + 1))
      continue
    fi
    imp="$(json_field "${out}" improvement)"
    ok="$(awk -v b="${base_imp}" -v f="${imp}" -v m="${max_regression}" \
          'BEGIN { print (b - f <= m) ? 1 : 0 }')"
    if [[ "${ok}" != 1 ]]; then
      echo "FAIL ${algo} rate=${rate}: improvement ${imp} vs base" \
           "${base_imp} (regression > ${max_regression})" >&2
      failures=$((failures + 1))
    else
      printf '  ok  %-18s rate=%-5s improvement=%s (base %s)\n' \
        "${algo}" "${rate}" "${imp}" "${base_imp}"
    fi
  done
done

echo "==> malformed input is rejected"
expect_exit2() {
  local label="$1"; shift
  set +e
  "${tune}" "$@" >/dev/null 2>"${workdir}/err.txt"
  local code=$?
  set -e
  if [[ "${code}" -ne 2 || ! -s "${workdir}/err.txt" ]]; then
    echo "FAIL ${label}: expected exit 2 with a message, got ${code}" >&2
    failures=$((failures + 1))
  else
    printf '  ok  %s -> exit 2 (%s)\n' "${label}" \
      "$(head -n 1 "${workdir}/err.txt")"
  fi
}
expect_exit2 "--budget abc"        --workload toy --budget abc
expect_exit2 "--budget -5"         --workload toy --budget -5
expect_exit2 "--fault-rate 1.5"    --workload toy --fault-rate 1.5
expect_exit2 "--k 10x"             --workload toy --k 10x
expect_exit2 "unknown flag"        --workload toy --no-such-flag
expect_exit2 "missing value"       --workload toy --budget
expect_exit2 "crash w/o checkpoint" --workload toy --crash-at-round 2
# Spec-line bounds: each of these once tuned with a narrowed value, was
# silently ignored, or aborted.
expect_exit2 "--k 4294967296"      --workload toy --k 4294967296
expect_exit2 "--k 4294967295"      --workload toy --k 4294967295
expect_exit2 "--retry-attempts 2^32" --workload toy \
  --retry-attempts 4294967296 --fault-rate 0.5
expect_exit2 "--crash-at-round 2^32+2" --workload toy \
  --checkpoint "${workdir}/never.ckpt" --crash-at-round 4294967298
expect_exit2 "--skip-threshold -5" --workload toy --skip-threshold -5
expect_exit2 "--stop-window -3"    --workload toy --stop-window -3
expect_exit2 "--algorithm foo"     --workload toy --algorithm foo

echo "==> a rejected checkpoint is fatal before any tuning"
printf 'not a checkpoint\n' > "${workdir}/garbage.ckpt"
set +e
"${tune}" --workload toy --resume "${workdir}/garbage.ckpt" \
  > "${workdir}/resume.out" 2>"${workdir}/err.txt"
code=$?
set -e
if [[ "${code}" -ne 1 || -s "${workdir}/resume.out" ||
      ! -s "${workdir}/err.txt" ]]; then
  echo "FAIL rejected --resume: expected exit 1 with a message and no" \
       "output, got ${code}" >&2
  failures=$((failures + 1))
else
  printf '  ok  rejected --resume -> exit 1 (%s)\n' \
    "$(head -n 1 "${workdir}/err.txt")"
fi

echo "==> kill-and-resume reproduces the uninterrupted run"
# Strip real wall-clock (the only legitimately varying field) and the
# resumed run's own note on the budget it recovered from the checkpoint.
normalize() {
  sed -e 's/executor wall=[0-9.]*s/executor wall=Xs/' \
      -e 's/, resumed: [0-9]* budget units recovered from checkpoint//' \
      -e 's/"executor_wall_seconds":[0-9.e+-]*/"executor_wall_seconds":0/' \
      -e 's#^layout trace written to .*#layout trace written to X#' \
      "$1"
}
resume_case() {
  local algo="$1" crash_round="$2"
  local common=(--workload toy --algorithm "${algo}" --budget 60 --k 3
                --seed 7 --fault-rate 0.10 --fault-sticky 0.02
                --fault-seed 11 --json)
  "${tune}" "${common[@]}" --layout-csv "${workdir}/full.csv" \
    > "${workdir}/full.json"
  local ckpt="${workdir}/${algo}.ckpt"
  set +e
  "${tune}" "${common[@]}" --checkpoint "${ckpt}" \
    --crash-at-round "${crash_round}" >/dev/null 2>&1
  local code=$?
  set -e
  if [[ "${code}" -ne 42 ]]; then
    echo "FAIL ${algo}: crash point exited ${code}, want 42" >&2
    failures=$((failures + 1))
    return
  fi
  "${tune}" "${common[@]}" --resume "${ckpt}" \
    --layout-csv "${workdir}/resumed.csv" \
    | grep -v '^resuming from ' > "${workdir}/resumed.json"
  normalize "${workdir}/full.json" > "${workdir}/full.norm"
  normalize "${workdir}/resumed.json" > "${workdir}/resumed.norm"
  if ! diff -q "${workdir}/full.norm" "${workdir}/resumed.norm" >/dev/null ||
     ! diff -q "${workdir}/full.csv" "${workdir}/resumed.csv" >/dev/null; then
    echo "FAIL ${algo}: resumed run differs from uninterrupted run" >&2
    diff "${workdir}/full.norm" "${workdir}/resumed.norm" >&2 || true
    failures=$((failures + 1))
  else
    printf '  ok  %-18s crash@round %s, resume bit-identical\n' \
      "${algo}" "${crash_round}"
  fi
}
resume_case vanilla-greedy 2
resume_case two-phase-greedy 2
resume_case mcts 3

if [[ "${failures}" -ne 0 ]]; then
  echo "==> fault matrix: ${failures} failure(s)" >&2
  exit 1
fi
echo "==> fault matrix clean"
