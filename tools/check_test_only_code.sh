#!/usr/bin/env bash
# Fails when a library under src/ defines a bati:: function that only tests
# reach:
#
#   tools/check_test_only_code.sh        # build trees under build-deadcode/
#   tools/check_test_only_code.sh DIR    # build trees under DIR
#
# Every src/ library and every non-test executable (tools/, bench/,
# examples/, and perfbench/ in a tree of its own) is built at -O0 with no
# inlining and one section per function, then linked with --gc-sections, so
# each executable keeps only the functions reachable from its main, its
# static initializers or a vtable it uses. A bati:: function (nm type T or
# W) that a src/ library defines but no such executable keeps is reached
# from tests or from nothing. Each one fails the check unless the allowlist
# below names it, and an allowlist entry that no longer names such a
# function fails it too, so the list stays exact. Exit status: 0 clean,
# 1 findings, 2 build or usage error.

set -euo pipefail
export LC_ALL=C

# Test-only functions that stay, one qualified name (no parameter list) per
# line, each with its reason.
allowlist=(
  # Many tests build bitsets from index lists with it; deleting it would
  # only copy it into tests/.
  "bati::DynamicBitset::FromIndices"
  # Many tests read one histogram out of a snapshot with it.
  "bati::MetricsSnapshot::FindHistogram"
  # The operator-at-a-time reference the plan-memoized Work() is compared
  # against.
  "bati::exec::ExecutionEngine::ExecuteOne"
)

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-${repo_root}/build-deadcode}"
if [ "$#" -gt 1 ]; then
  echo "usage: $0 [build-dir]" >&2
  exit 2
fi
jobs="$(nproc 2>/dev/null || echo 4)"
main_tree="${out}/main"
perf_tree="${out}/perfbench"
flags="-O0 -fno-inline -ffunction-sections -fdata-sections"

configure() {
  # Build type "None" adds no flags of its own, so -O0 is the last word.
  cmake -G "Unix Makefiles" -S "$1" -B "$2" \
    -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="${flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
}

echo "==> building src/ libraries and non-test executables in ${out}"
if ! configure "${repo_root}" "${main_tree}" ||
  ! make -s -C "${main_tree}/tools" -j "${jobs}" >/dev/null ||
  ! make -s -C "${main_tree}/bench" -j "${jobs}" >/dev/null ||
  ! make -s -C "${main_tree}/examples" -j "${jobs}" >/dev/null ||
  ! configure "${repo_root}/perfbench" "${perf_tree}" ||
  ! make -s -C "${perf_tree}" -j "${jobs}" perfbench >/dev/null; then
  echo "check_test_only_code: build failed" >&2
  exit 2
fi

# Defined bati:: functions of the given object files, demangled, one per line.
functions_of() {
  nm -C --defined-only "$@" 2>/dev/null |
    sed -nE 's/^[0-9a-f]+ [TW] (bati::.*)$/\1/p' | sort -u
}

libraries=("${main_tree}"/src/*.a)
mapfile -t executables < <(
  find "${main_tree}/tools" "${main_tree}/bench" "${main_tree}/examples" \
    -maxdepth 1 -type f -perm -u+x
  echo "${perf_tree}/perfbench"
)
echo "==> ${#libraries[@]} libraries, ${#executables[@]} executables"

# Functions a library defines that no executable kept, and their qualified
# names: the parameter list and ABI tags stripped.
name_only='s/\(.*$//; s/\[abi:[^]]*\]//g'
test_only="$(comm -23 <(functions_of "${libraries[@]}") \
  <(functions_of "${executables[@]}"))"
names="$(printf '%s\n' "${test_only}" | sed -E "${name_only}" | sort -u)"

status=0
while IFS= read -r symbol; do
  [ -n "${symbol}" ] || continue
  name="$(sed -E "${name_only}" <<<"${symbol}")"
  allowed=0
  for entry in "${allowlist[@]}"; do
    if [ "${name}" = "${entry}" ]; then
      allowed=1
      break
    fi
  done
  if [ "${allowed}" -eq 0 ]; then
    echo "test-only: ${symbol}"
    status=1
  fi
done <<<"${test_only}"

for entry in "${allowlist[@]}"; do
  if ! grep -qxF "${entry}" <<<"${names}"; then
    echo "stale allowlist entry (a non-test executable reaches it, or it" \
      "is gone): ${entry}"
    status=1
  fi
done

if [ "${status}" -eq 0 ]; then
  echo "==> no test-only code beyond the ${#allowlist[@]} allowlisted functions"
else
  echo "==> give each function above a production caller, delete it with" \
    "its tests, or allowlist it with a reason" >&2
fi
exit "${status}"
