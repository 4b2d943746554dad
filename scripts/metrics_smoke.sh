#!/usr/bin/env bash
# Metrics smoke: the ops endpoint answers with real numbers, end to end.
#
# A 3-node dharma-node fleet runs over real UDP with -debug-addr enabled
# and -trace-slow 1ns so every lookup crosses the slow threshold and
# leaves a retained trace. A client drives insert/tag/search traffic
# through the overlay, then `dharma-node scrape` reads each node's ops
# endpoint and asserts the two things the telemetry exists to show:
# nonzero served-RPC latency histograms (-assert-rpc) and at least one
# hop-level lookup trace with spans (-assert-trace). -assert-min checks
# the counters kademlia.NewNode registers are live on every node. The
# scrape also
# exercises /metrics parsing, /debug/stats, /debug/traces JSON decoding,
# and the pprof mux, so a regression in any of them fails here.
#
#   ./scripts/metrics_smoke.sh
set -euo pipefail

BASE_PORT="${BASE_PORT:-9560}"
DEBUG_PORT="${DEBUG_PORT:-9570}"
WORK="$(mktemp -d)"
NODE="$WORK/dharma-node"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$NODE" ./cmd/dharma-node

echo "== 3-node fleet, ops endpoints on ${DEBUG_PORT}..$((DEBUG_PORT + 2))"
"$NODE" serve -listen "127.0.0.1:${BASE_PORT}" \
  -debug-addr "127.0.0.1:${DEBUG_PORT}" -trace-slow 1ns \
  >"$WORK/node0.log" 2>&1 &
PIDS+=($!)
sleep 0.5
for i in 1 2; do
  "$NODE" serve -listen "127.0.0.1:$((BASE_PORT + i))" \
    -bootstrap "127.0.0.1:${BASE_PORT}" \
    -debug-addr "127.0.0.1:$((DEBUG_PORT + i))" -trace-slow 1ns \
    >"$WORK/node$i.log" 2>&1 &
  PIDS+=($!)
done
sleep 0.5

echo "== driving traffic through the overlay"
# Generous timeouts: every transient client leaves a dead ephemeral
# contact in the fleet's routing tables, so later lookups spend RPC
# timeouts discovering it's gone. (The slow-op traces below show
# exactly that — which is the feature under test doing its job.)
for r in nw yesterday helter; do
  "$NODE" insert -bootstrap "127.0.0.1:${BASE_PORT}" \
    -r "$r" -uri "magnet:?xt=$r" -tags rock,beatles -timeout 30s >/dev/null
done
"$NODE" tag -bootstrap "127.0.0.1:${BASE_PORT}" -r nw -t 60s -timeout 30s >/dev/null
"$NODE" search -bootstrap "127.0.0.1:$((BASE_PORT + 1))" -t rock -timeout 30s >/dev/null

echo "== scraping every node's ops endpoint"
# Every node must report served RPCs. Lookups and their traces exist
# only on nodes that *initiate* lookups — nodes 1 and 2 ran and traced
# their bootstrap self-lookup (forced slow by -trace-slow 1ns); seed
# node 0 only serves.
for i in 0 1 2; do
  asserts=(-assert-rpc)
  mins=dharma_rpc_served_total=1,dharma_antientropy_digest_matches_total=0
  if [ "$i" -gt 0 ]; then
    asserts+=(-assert-trace)
    mins="dharma_lookups_total=1,$mins"
  fi
  asserts+=(-assert-min "$mins")
  echo "-- node $i (127.0.0.1:$((DEBUG_PORT + i)))"
  if ! "$NODE" scrape -addr "127.0.0.1:$((DEBUG_PORT + i))" \
    "${asserts[@]}" >"$WORK/scrape$i.out" 2>"$WORK/scrape$i.err"; then
    echo "FAIL: scrape of node $i failed" >&2
    cat "$WORK/scrape$i.out" "$WORK/scrape$i.err" >&2
    exit 1
  fi
  # The asserts already enforce the substance; echo the proof lines.
  grep -E '^(assert-rpc ok|assert-trace ok|assert-min ok|pprof: live)' "$WORK/scrape$i.out"
done

echo "== spot-checking the rendered output"
# The newest trace must render a hop timeline: per-hop peer, kind, rtt.
if ! grep -q 'hop 1  ' "$WORK/scrape1.out"; then
  echo "FAIL: node 1 scrape rendered no hop-level trace spans" >&2
  cat "$WORK/scrape1.out" >&2
  exit 1
fi
# The serve histograms must be labeled per RPC kind.
if ! grep -q 'dharma_rpc_serve_seconds{' "$WORK/scrape0.out"; then
  echo "FAIL: node 0 scrape shows no per-kind serve histogram" >&2
  cat "$WORK/scrape0.out" >&2
  exit 1
fi

echo "== clean SIGTERM stop of every node"
for pid in "${PIDS[@]}"; do
  kill "$pid" 2>/dev/null || true
done
for pid in "${PIDS[@]}"; do
  for _ in $(seq 1 40); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$pid" 2>/dev/null; then
    echo "FAIL: node $pid ignored SIGTERM" >&2
    exit 1
  fi
done
PIDS=()

echo "metrics smoke passed: all 3 ops endpoints served metrics, stats, traces and pprof"
