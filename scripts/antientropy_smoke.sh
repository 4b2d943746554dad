#!/usr/bin/env bash
# Anti-entropy smoke: digest-frugal replica sync end to end, over real UDP.
#
# A 3-node dharma-node fleet runs with a 1-second maintenance interval,
# a client seeds resources and tags through the overlay (write-time
# replication puts identical blocks on every node), and then the fleet's
# periodic anti-entropy rounds take over. The check is the point of the
# feature: replicas that agree must prove it by digest — the maintenance
# log must show digest matches accumulating and ZERO full-block pushes,
# because shipping a block whose replicas already agree is exactly the
# bandwidth this protocol exists to avoid. Every round's line also
# carries that round's replica acknowledgements (acks=), and the fleet's
# rounds together must have collected some.
#
#   ./scripts/antientropy_smoke.sh
set -euo pipefail

BASE_PORT="${BASE_PORT:-9520}"
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

echo "== 3-node fleet, maintenance every 1s, ports ${BASE_PORT}..$((BASE_PORT + 2))"
"$NODE" serve -listen "127.0.0.1:${BASE_PORT}" -maintain 1s \
  >"$WORK/node0.log" 2>&1 &
PIDS+=($!)
sleep 0.5
for i in 1 2; do
  "$NODE" serve -listen "127.0.0.1:$((BASE_PORT + i))" \
    -bootstrap "127.0.0.1:${BASE_PORT}" -maintain 1s \
    >"$WORK/node$i.log" 2>&1 &
  PIDS+=($!)
done
sleep 0.5

echo "== seeding resources and tags through the overlay"
for r in nw yesterday helter; do
  "$NODE" insert -bootstrap "127.0.0.1:${BASE_PORT}" \
    -r "$r" -uri "magnet:?xt=$r" -tags rock,beatles -timeout 5s >/dev/null
done
"$NODE" tag -bootstrap "127.0.0.1:${BASE_PORT}" -r nw -t 60s -timeout 5s >/dev/null

echo "== letting anti-entropy rounds run"
# ~4 maintenance ticks: the first syncs every block (proven equal by
# digest), later ones skip settled blocks entirely.
sleep 4.5

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

echo "== verifying the maintenance logs"
total_matches=0
total_acks=0
for i in 0 1 2; do
  log="$WORK/node$i.log"
  last="$(grep 'maintenance: anti-entropy' "$log" | tail -n 1 || true)"
  if [ -z "$last" ]; then
    echo "FAIL: node $i logged no anti-entropy maintenance round" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "node $i: $last"
  matches="$(sed -n 's/.*matches=\([0-9]*\).*/\1/p' <<<"$last")"
  full="$(sed -n 's/.*full-blocks=\([0-9]*\).*/\1/p' <<<"$last")"
  acks="$(sed -n 's/.* acks=\([0-9]*\).*/\1/p' <<<"$last")"
  if [ -z "$matches" ] || [ -z "$full" ] || [ -z "$acks" ]; then
    echo "FAIL: node $i maintenance line missing counters" >&2
    exit 1
  fi
  if [ "$full" -ne 0 ]; then
    echo "FAIL: node $i pushed $full full blocks — replicas that agree must match by digest, not re-ship data" >&2
    exit 1
  fi
  total_matches=$((total_matches + matches))
  # acks is per round (matches is a running total): sum every round.
  for a in $(grep 'maintenance: anti-entropy' "$log" | sed -n 's/.* acks=\([0-9]*\).*/\1/p'); do
    total_acks=$((total_acks + a))
  done
done
if [ "$total_matches" -eq 0 ]; then
  echo "FAIL: no digest matches anywhere in the fleet — summary exchange never proved replica agreement" >&2
  exit 1
fi
if [ "$total_acks" -eq 0 ]; then
  echo "FAIL: no replica acknowledgements in any round — anti-entropy reached no replica" >&2
  exit 1
fi

echo "anti-entropy smoke passed: $total_matches digest matches and $total_acks acks fleet-wide, zero full-block pushes, clean stop"
