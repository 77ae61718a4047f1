#!/usr/bin/env bash
# Launches a real multi-process Parda analysis: one trace_tool process per
# rank over a cross-process wire (tcp socket mesh or a named shm segment).
# Ranks np-1..1 run in the background; rank 0 runs in the foreground and
# its exit code (it holds the merged histogram) is the script's. A `wait`
# afterwards reaps the background ranks so none outlive the run.
#
# Usage:
#   scripts/run_distributed.sh TRACE [--np N] [--wire tcp|shm]
#                              [--base-port P] [--segment /name]
#                              [--serve PORT]
#                              [-- EXTRA_TRACE_TOOL_ARGS...]
# Examples:
#   scripts/run_distributed.sh trace.trc --np 4                # tcp mesh
#   scripts/run_distributed.sh trace.trc --np 2 --wire shm \
#       --segment /parda-run -- --bound=4096
#   scripts/run_distributed.sh trace.trc --np 4 --serve 9464   # fleet scrape
#
# --serve starts rank 0's TelemetryServer (PORT, or 0 for ephemeral): the
# telemetry channel forwards every rank's metrics and spans to rank 0, so
# `curl localhost:PORT/metrics` mid-run returns the whole fleet's series
# under process="..." labels. Only rank 0 gets the flag.
#
# Every rank needs the same trace file path; this launcher targets a
# single host (the multi-machine case is the same invocation with the
# loopback endpoints replaced by real ones, one per machine).
set -euo pipefail
cd "$(dirname "$0")/.."

TOOL=${PARDA_TRACE_TOOL:-./build/examples/trace_tool}

trace=""
np=2
wire=tcp
base_port=27100  # below the kernel's ephemeral range (32768-60999)
segment=/parda-dist
serve=""
extra=()

while [ $# -gt 0 ]; do
  case "$1" in
    --np) np="$2"; shift 2 ;;
    --np=*) np="${1#*=}"; shift ;;
    --wire) wire="$2"; shift 2 ;;
    --wire=*) wire="${1#*=}"; shift ;;
    --base-port) base_port="$2"; shift 2 ;;
    --base-port=*) base_port="${1#*=}"; shift ;;
    --segment) segment="$2"; shift 2 ;;
    --segment=*) segment="${1#*=}"; shift ;;
    --serve) serve="$2"; shift 2 ;;
    --serve=*) serve="${1#*=}"; shift ;;
    --) shift; extra=("$@"); break ;;
    -*) echo "run_distributed.sh: unknown flag $1" >&2; exit 2 ;;
    *)
      if [ -n "$trace" ]; then
        echo "run_distributed.sh: more than one trace given" >&2; exit 2
      fi
      trace="$1"; shift ;;
  esac
done

if [ -z "$trace" ]; then
  echo "usage: scripts/run_distributed.sh TRACE [--np N] [--wire tcp|shm]" \
       "[--base-port P] [--segment /name] [-- TRACE_TOOL_ARGS...]" >&2
  exit 2
fi
if [ ! -x "$TOOL" ]; then
  echo "run_distributed.sh: $TOOL not built (cmake --build build" \
       "--target trace_tool), or set PARDA_TRACE_TOOL" >&2
  exit 2
fi

case "$wire" in
  tcp)
    peers=""
    for ((r = 0; r < np; ++r)); do
      peers+="${peers:+,}127.0.0.1:$((base_port + r))"
    done
    common=(analyze "$trace" --procs="$np" --transport=tcp
            --peers="$peers" "${extra[@]}")
    ;;
  shm)
    common=(analyze "$trace" --procs="$np" --transport=shm
            --segment="$segment" "${extra[@]}")
    ;;
  *)
    echo "run_distributed.sh: --wire must be tcp or shm, got '$wire'" >&2
    exit 2
    ;;
esac

rank0_extra=()
if [ -n "$serve" ]; then
  rank0_extra+=(--serve="$serve")
fi

for ((r = np - 1; r >= 1; --r)); do
  "$TOOL" "${common[@]}" --rank="$r" &
done
rc=0
"$TOOL" "${common[@]}" "${rank0_extra[@]}" --rank=0 || rc=$?
wait
exit "$rc"
