#!/usr/bin/env bash
# Auth smoke: the secure wire holds up end to end, against a live fleet.
#
# A CA is initialised on disk (`dharma-node ca init`), identities are
# issued to three serving nodes and two clients, and one client
# (mallory) is revoked before the fleet boots. The 3-node fleet runs
# over real UDP with -require-auth: every datagram travels inside an
# authenticated session, every mutation is vetted against the CA key
# and the revocation bundle.
#
# The script then proves the three properties the layer exists for:
#
#   1. An authorized client (alice) can write and read back.
#   2. A malicious writer is refused: a plain (session-less) client and
#      the revoked client both fail to write, and NOTHING they attempted
#      to store is readable afterwards — zero unauthorized entries.
#   3. A 100ms client deadline is enforced server-side: against a node
#      with -chaos-delay 300ms the budget travels in the message header
#      and the server sheds the dead-on-arrival request, visible in its
#      dharma_rpc_deadline_shed_total metric.
#
#   ./scripts/auth_smoke.sh
set -euo pipefail

BASE_PORT="${BASE_PORT:-9580}"
DEBUG_PORT="${DEBUG_PORT:-9590}"
WORK="$(mktemp -d)"
NODE="$WORK/dharma-node"
CA="$WORK/ca"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$NODE" ./cmd/dharma-node

echo "== CA setup: init, issue, revoke"
"$NODE" ca init -dir "$CA" -validity 1h
for who in node0 node1 node2 node3 alice mallory; do
  "$NODE" ca issue -dir "$CA" -name "$who" -out "$WORK/$who.id"
done
# Mallory is revoked before the fleet boots: the bundle every node
# loads already names her.
"$NODE" ca revoke -dir "$CA" -identity "$WORK/mallory.id"

SEC=(-ca "$CA/ca.pub" -revocations "$CA/revocations.bin")

echo "== 3-node secured fleet (-require-auth) on ${BASE_PORT}..$((BASE_PORT + 2))"
"$NODE" serve -listen "127.0.0.1:${BASE_PORT}" \
  -identity "$WORK/node0.id" "${SEC[@]}" -require-auth \
  -debug-addr "127.0.0.1:${DEBUG_PORT}" \
  >"$WORK/node0.log" 2>&1 &
PIDS+=($!)
sleep 0.5
for i in 1 2; do
  "$NODE" serve -listen "127.0.0.1:$((BASE_PORT + i))" \
    -bootstrap "127.0.0.1:${BASE_PORT}" \
    -identity "$WORK/node$i.id" "${SEC[@]}" -require-auth \
    -debug-addr "127.0.0.1:$((DEBUG_PORT + i))" \
    >"$WORK/node$i.log" 2>&1 &
  PIDS+=($!)
done
sleep 0.5

echo "== authorized client (alice) writes and reads back"
"$NODE" insert -bootstrap "127.0.0.1:${BASE_PORT}" \
  -identity "$WORK/alice.id" "${SEC[@]}" \
  -r good-song -uri "magnet:?xt=good" -tags rock,signed -timeout 30s
"$NODE" tag -bootstrap "127.0.0.1:$((BASE_PORT + 1))" \
  -identity "$WORK/alice.id" "${SEC[@]}" \
  -r good-song -t verified -timeout 30s
"$NODE" resolve -bootstrap "127.0.0.1:$((BASE_PORT + 2))" \
  -identity "$WORK/alice.id" "${SEC[@]}" \
  -r good-song -timeout 30s | grep -q "magnet:?xt=good" || {
  echo "FAIL: authorized client cannot read its own write back" >&2
  exit 1
}

echo "== malicious writer 1: plain (session-less) client is refused"
if "$NODE" insert -bootstrap "127.0.0.1:${BASE_PORT}" \
  -r evil-plain -uri "magnet:?xt=evil" -tags pwn -timeout 5s \
  >"$WORK/plain.out" 2>&1; then
  echo "FAIL: unauthenticated client was allowed to write" >&2
  cat "$WORK/plain.out" >&2
  exit 1
fi
echo "   refused, as it must be"

echo "== malicious writer 2: revoked client (mallory) is refused"
if "$NODE" insert -bootstrap "127.0.0.1:${BASE_PORT}" \
  -identity "$WORK/mallory.id" "${SEC[@]}" \
  -r evil-revoked -uri "magnet:?xt=evil" -tags pwn -timeout 5s \
  >"$WORK/mallory.out" 2>&1; then
  echo "FAIL: revoked client was allowed to write" >&2
  cat "$WORK/mallory.out" >&2
  exit 1
fi
echo "   refused, as it must be"

echo "== zero unauthorized entries readable"
for r in evil-plain evil-revoked; do
  if "$NODE" resolve -bootstrap "127.0.0.1:$((BASE_PORT + 1))" \
    -identity "$WORK/alice.id" "${SEC[@]}" \
    -r "$r" -timeout 10s >"$WORK/resolve-$r.out" 2>&1; then
    echo "FAIL: unauthorized resource $r is readable:" >&2
    cat "$WORK/resolve-$r.out" >&2
    exit 1
  fi
done
echo "   neither malicious write left a readable trace"

echo "== scraping the security telemetry"
# Node 0 accepted the fleet's and alice's handshakes, holds live
# sessions, and refused the plain caller at the transport.
"$NODE" scrape -addr "127.0.0.1:${DEBUG_PORT}" -assert-rpc \
  -assert-min "dharma_session_accepted_total=2,dharma_session_cache_size=1,dharma_udp_unauthenticated_rejected_total=1" \
  >"$WORK/scrape0.out"
grep -E '^assert-min ok' "$WORK/scrape0.out"
# Node 1 dialed node 0 to bootstrap: its handshake latency histogram
# must have fired.
"$NODE" scrape -addr "127.0.0.1:$((DEBUG_PORT + 1))" \
  -assert-min "dharma_session_handshake_seconds=1" \
  >"$WORK/scrape1.out"
grep -E '^assert-min ok' "$WORK/scrape1.out"

echo "== deadline propagation: 100ms client budget, 300ms server delay"
"$NODE" serve -listen "127.0.0.1:$((BASE_PORT + 3))" \
  -identity "$WORK/node3.id" "${SEC[@]}" -require-auth \
  -chaos-delay 300ms \
  -debug-addr "127.0.0.1:$((DEBUG_PORT + 3))" \
  >"$WORK/node3.log" 2>&1 &
PIDS+=($!)
sleep 0.5
# The client's 100ms budget travels in every message header; the chaos
# node sits on each request for 300ms, finds the deadline gone, and
# sheds instead of answering. The client must come back empty-handed...
if "$NODE" insert -bootstrap "127.0.0.1:$((BASE_PORT + 3))" \
  -identity "$WORK/alice.id" "${SEC[@]}" \
  -r deadline-probe -uri "magnet:?xt=probe" -timeout 100ms \
  >"$WORK/deadline.out" 2>&1; then
  echo "FAIL: 100ms-budget write against a 300ms-delay node succeeded" >&2
  cat "$WORK/deadline.out" >&2
  exit 1
fi
# ...and the SERVER must have observed the expiry: the shed counter
# proves the budget crossed the wire rather than dying client-side. The
# server sheds only when its 300ms delay ends, which can be after the
# client has exited, so the scrape is retried every 100ms for up to 5s.
for attempt in $(seq 50); do
  if "$NODE" scrape -addr "127.0.0.1:$((DEBUG_PORT + 3))" \
    -assert-min "dharma_rpc_deadline_shed_total=1" \
    >"$WORK/scrape3.out" 2>&1; then
    break
  fi
  if [ "$attempt" -eq 50 ]; then
    echo "FAIL: node 3 counted no deadline shed within 5s" >&2
    cat "$WORK/scrape3.out" >&2
    exit 1
  fi
  sleep 0.1
done
grep -E '^assert-min ok' "$WORK/scrape3.out"

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

echo "auth smoke passed: signed writes land, unsigned and revoked writers bounce, deadlines shed server-side"
