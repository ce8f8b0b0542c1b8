#!/usr/bin/env bash
# Launch gate for the serve daemon, in two parts:
#
#   1. Pipes a three-event script through bati_serve and asserts exactly
#      three result lines on stdout and a clean exit 0.
#   2. Holds stdin open through a FIFO, SIGTERMs the daemon mid-stream,
#      and asserts a graceful exit 0 plus a well-formed checkpoint.
#
#   tools/run_serve_smoke.sh [build-dir]    # default: build

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-build}"
serve="${repo_root}/${build}/tools/bati_serve"

if [[ ! -x "${serve}" ]]; then
  echo "error: ${serve} not built" >&2
  exit 2
fi

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

echo "==> serve smoke 1/2: three events in, three lines out"
cat > "${workdir}/events.jsonl" <<'EOF'
{"type":"register","tenant":"smoke","workload":"toy","algorithm":"vanilla-greedy","budget":40}
{"type":"query","tenant":"smoke","query":0}
{"type":"drain"}
EOF
"${serve}" < "${workdir}/events.jsonl" > "${workdir}/out.jsonl"
lines="$(wc -l < "${workdir}/out.jsonl")"
if [[ "${lines}" -ne 3 ]]; then
  echo "error: expected 3 output lines, got ${lines}:" >&2
  cat "${workdir}/out.jsonl" >&2
  exit 1
fi
grep -q '"type":"register"' "${workdir}/out.jsonl"
grep -q '"type":"query"' "${workdir}/out.jsonl"
grep -q '"type":"drain"' "${workdir}/out.jsonl"

echo "==> serve smoke 2/2: SIGTERM drains, checkpoints, exits 0"
mkfifo "${workdir}/events.fifo"
"${serve}" --state "${workdir}/state.ckpt" \
  < "${workdir}/events.fifo" > "${workdir}/out2.jsonl" &
pid=$!
# Keep a writer attached so the daemon blocks on the open stream the way
# a live event source would, then feed it one event.
exec 3> "${workdir}/events.fifo"
printf '%s\n' \
  '{"type":"register","tenant":"smoke","workload":"toy","algorithm":"vanilla-greedy","budget":40}' >&3
# Wait for the register ack so the SIGTERM provably arrives mid-stream,
# not before the daemon started serving.
for _ in $(seq 1 100); do
  [[ -s "${workdir}/out2.jsonl" ]] && break
  sleep 0.1
done
if [[ ! -s "${workdir}/out2.jsonl" ]]; then
  echo "error: daemon produced no output before timeout" >&2
  kill -KILL "${pid}" 2>/dev/null || true
  exit 1
fi
kill -TERM "${pid}"
exit_code=0
wait "${pid}" || exit_code=$?
exec 3>&-
if [[ "${exit_code}" -ne 0 ]]; then
  echo "error: daemon exited ${exit_code} on SIGTERM" >&2
  exit 1
fi
head -1 "${workdir}/state.ckpt" | grep -q '^bati-serve v3$'
sed -n 2p "${workdir}/state.ckpt" | grep -Eq '^checksum [0-9a-f]{8} [0-9]+$'
grep -q '^tenant smoke$' "${workdir}/state.ckpt"

echo "serve smoke: OK"
