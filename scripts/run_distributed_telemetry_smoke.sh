#!/usr/bin/env bash
# Distributed telemetry-plane smoke, in three acts:
#
#   1. Bit-identity: the merged analysis (reference counts + MRC table)
#      must be byte-identical with telemetry off and on, across every
#      wire — threads in-process, then real 2-process shm and tcp runs
#      via scripts/run_distributed.sh. The telemetry channel rides the
#      transport's reserved control tags, so it must never perturb the
#      data-plane messages it shares the wire with.
#   2. Fleet scrape: a tcp run with an injected straggler delay serves
#      rank 0's /metrics mid-run; the scrape must carry BOTH processes'
#      series (process="0" and process="1" labels), pass `trace_tool
#      checkmetrics`, and show the remote clock handshake converged.
#   3. Flight recorder: an injected remote send fault must abort the job
#      AND leave a parda.flightrec.v1 postmortem from the faulting
#      process via the $PARDA_FLIGHT_RECORDER env fallback.
#
# Usage: scripts/run_distributed_telemetry_smoke.sh [BUILD_DIR]  (default:
# build). Used as the distributed-telemetry CI job.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
TOOL="$BUILD_DIR/examples/trace_tool"
if [[ ! -x "$TOOL" ]]; then
  echo "error: $TOOL not built (run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 1
fi
export PARDA_TRACE_TOOL="$TOOL"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
# Per-run port block below the kernel's ephemeral range (32768-60999), so
# no concurrent outgoing connection can already hold one of its ports.
BASE_PORT=$((25000 + ($$ % 500) * 4))
SEGMENT="/parda-telsmoke-$$"

"$TOOL" gen --workload=zipf:m=800,a=0.9 --refs=120000 --seed=3 \
    --out="$WORK/smoke.trc"

# Strips every line the telemetry plane adds (port announcement, scrape
# URL, snapshot-written notices) and the background ranks' sign-offs,
# leaving only the analysis result: reference counts and the MRC table.
filter() {
  grep -Ev '^(PARDA_SERVE_PORT=|serving telemetry|wrote |rank [0-9]+ done)' \
    "$1" > "$2"
}

echo "=== act 1: bit-identity with telemetry on/off ==="
"$TOOL" analyze "$WORK/smoke.trc" --procs=2 > "$WORK/ref.out"
filter "$WORK/ref.out" "$WORK/ref.filtered"

run_variant() {  # name, command...
  local name="$1"; shift
  "$@" > "$WORK/$name.out"
  filter "$WORK/$name.out" "$WORK/$name.filtered"
  if ! diff -u "$WORK/ref.filtered" "$WORK/$name.filtered"; then
    echo "error: $name analysis differs from the telemetry-off reference" >&2
    exit 1
  fi
  echo "  $name: identical"
}

run_variant threads_on "$TOOL" analyze "$WORK/smoke.trc" --procs=2 \
    --serve=0 --metrics-out=/dev/null
run_variant shm_off scripts/run_distributed.sh "$WORK/smoke.trc" \
    --np 2 --wire shm --segment "$SEGMENT-off"
run_variant shm_on scripts/run_distributed.sh "$WORK/smoke.trc" \
    --np 2 --wire shm --segment "$SEGMENT-on" --serve 0 \
    -- --metrics-out=/dev/null
run_variant tcp_off scripts/run_distributed.sh "$WORK/smoke.trc" \
    --np 2 --wire tcp --base-port "$BASE_PORT"
run_variant tcp_on scripts/run_distributed.sh "$WORK/smoke.trc" \
    --np 2 --wire tcp --base-port $((BASE_PORT + 4)) --serve 0 \
    -- --metrics-out=/dev/null

echo "=== act 2: mid-run fleet scrape over tcp ==="
# --stream so the chunks travel over the wire (in offline mode rank 1
# never recvs and the injected delay would go unmatched); the 800ms delay
# holds the run open long enough for the scrape to land mid-analysis.
PARDA_TELEMETRY_INTERVAL_MS=25 scripts/run_distributed.sh \
    "$WORK/smoke.trc" --np 2 --wire tcp --base-port $((BASE_PORT + 8)) \
    --serve 0 -- --stream --chunk=4096 --metrics-out=/dev/null \
    --fault-plan="rank=1,op=recv,n=0,action=delay,ms=800" \
    > "$WORK/scrape_run.out" 2> "$WORK/scrape_run.log" &
RUN_PID=$!

PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^PARDA_SERVE_PORT=\([0-9]*\)$/\1/p' \
    "$WORK/scrape_run.out" | head -n1)"
  [[ -n "$PORT" ]] && break
  sleep 0.1
done
if [[ -z "$PORT" ]]; then
  echo "error: rank 0 never announced its serve port" >&2
  cat "$WORK/scrape_run.out" "$WORK/scrape_run.log" >&2
  exit 1
fi

# Poll until the remote process's series reach the fleet exposition: its
# first telemetry frame lands within ~one 25ms forwarding interval.
FLEET=""
for _ in $(seq 1 200); do
  if curl -fsS "http://127.0.0.1:$PORT/metrics" > "$WORK/fleet.prom" 2>/dev/null \
      && grep -q 'process="1"' "$WORK/fleet.prom"; then
    FLEET=yes
    break
  fi
  sleep 0.05
done
wait "$RUN_PID"
if [[ -z "$FLEET" ]]; then
  echo "error: remote series never reached rank 0's /metrics" >&2
  exit 1
fi
grep -q 'process="0"' "$WORK/fleet.prom"
grep -q 'parda_telemetry_clock_valid{process="1"} 1' "$WORK/fleet.prom"
"$TOOL" checkmetrics "$WORK/fleet.prom"

echo "=== act 3: crash flight recorder on an injected abort ==="
rc=0
PARDA_FLIGHT_RECORDER="$WORK/fr_%r.json" scripts/run_distributed.sh \
    "$WORK/smoke.trc" --np 2 --wire tcp --base-port $((BASE_PORT + 12)) \
    -- --metrics-out=/dev/null --fault-plan="rank=1,op=send,n=0" \
    > "$WORK/abort_run.out" 2> "$WORK/abort_run.log" || rc=$?
if [[ "$rc" -eq 0 ]]; then
  echo "error: injected send fault did not fail the job" >&2
  exit 1
fi
if [[ ! -s "$WORK/fr_1.json" ]]; then
  echo "error: faulting process left no flight-recorder dump" >&2
  ls -l "$WORK" >&2
  exit 1
fi
grep -q '"schema": *"parda.flightrec.v1"' "$WORK/fr_1.json"
grep -q '"abort.origin": *"1"' "$WORK/fr_1.json"
grep -q '"event":"comm.abort"' "$WORK/fr_1.json"

echo "distributed telemetry smoke passed:" \
     "bit-identical on/off (threads/shm/tcp), fleet scrape valid," \
     "flight recorder dumped"
