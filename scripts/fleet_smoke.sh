#!/usr/bin/env bash
# End-to-end smoke test of the synthesis fleet (docs/SERVER.md, "Fleet"):
# three oblxd daemons on loopback TCP behind a shared auth token, plus a
# standalone reference daemon. Proves the token gate, scatters a restart
# budget through the coordinator and checks the merged winner against the
# single-daemon run bit for bit, kills a peer mid-job and checks the
# stolen shard changes nothing, and checks compile verdicts replicated
# between peers. CI runs this next to serve-smoke; locally it is
# `make fleet-smoke`. Everything lives in a temp dir.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/oblxd.exe bin/astrx.exe

OBLXD=_build/default/bin/oblxd.exe
ASTRX=_build/default/bin/astrx.exe
DIR=$(mktemp -d)

fail() { echo "fleet-smoke: FAIL: $*" >&2; exit 1; }
cleanup() {
  for f in "$DIR"/*.pid; do
    [ -f "$f" ] && kill "$(cat "$f")" 2>/dev/null || true
  done
  rm -rf "$DIR"
}
trap cleanup EXIT

echo fleet-smoke-secret > "$DIR/token"
echo wrong-secret > "$DIR/bad-token"
AUTH=(--auth-token-file "$DIR/token")

# Boot a daemon on an ephemeral TCP port and scrape the port from its
# banner. $1 = tag, rest = extra oblxd flags. Runs inside a command
# substitution, so the pid goes to a file, not a shell variable.
boot() {
  local tag=$1; shift
  "$OBLXD" --socket "$DIR/$tag.sock" --tcp 127.0.0.1:0 "${AUTH[@]}" \
    --workers 1 --no-state --queue 64 "$@" > "$DIR/$tag.log" 2>&1 &
  echo $! > "$DIR/$tag.pid"
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^oblxd: tcp on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$DIR/$tag.log" | head -1)
    if [ -n "$port" ] && [ -S "$DIR/$tag.sock" ]; then break; fi
    sleep 0.1
  done
  [ -n "$port" ] || fail "daemon $tag never reported its TCP port"
  echo "$port"
}

# Peers B and C replicate compile verdicts to each other; the coordinator
# A scatters restart budgets over both; D is the single-box reference.
PORT_B=$(boot b)
PORT_C=$(boot c)
# Rebooting B/C with each other as peers would lose their ports, so the
# mesh is wired through A only; B->C replication gets its own pass below.
PORT_A=$(boot a --peer "tcp:127.0.0.1:$PORT_B" --peer "tcp:127.0.0.1:$PORT_C")
PID_C=$(cat "$DIR/c.pid")
"$OBLXD" --socket "$DIR/d.sock" --workers 1 --no-state --queue 64 > "$DIR/d.log" 2>&1 &
echo $! > "$DIR/d.pid"
for _ in $(seq 1 50); do [ -S "$DIR/d.sock" ] && break; sleep 0.1; done
[ -S "$DIR/d.sock" ] || fail "reference daemon never came up"

best_cost() { grep -o '"best_cost":[^,}]*' <<<"$1" | head -1; }

echo "== auth gate =="
"$ASTRX" stats --socket "tcp:127.0.0.1:$PORT_A" "${AUTH[@]}" --json >/dev/null \
  || fail "correct token refused"
if "$ASTRX" stats --socket "tcp:127.0.0.1:$PORT_A" --auth-token-file "$DIR/bad-token" --json \
    > "$DIR/bad.out" 2>&1; then
  fail "wrong token accepted"
fi
grep -q "authentication failed" "$DIR/bad.out" || fail "refusal does not name auth"

echo "== scatter/merge vs single box =="
REF=$("$ASTRX" submit simple-ota --socket "$DIR/d.sock" --seed 7 --moves 600 --runs 6 --wait --json)
grep -q '"state":"done"' <<<"$REF" || fail "reference job did not finish"
FLEET=$("$ASTRX" submit simple-ota --socket "$DIR/a.sock" "${AUTH[@]}" --seed 7 --moves 600 --runs 6 --wait --json)
grep -q '"state":"done"' <<<"$FLEET" || fail "fleet job did not finish"
[ -n "$(best_cost "$REF")" ] || fail "reference job carries no best_cost"
if [ "$(best_cost "$REF")" != "$(best_cost "$FLEET")" ]; then
  fail "fleet winner $(best_cost "$FLEET") != single box $(best_cost "$REF")"
fi
"$ASTRX" stats --socket "$DIR/a.sock" "${AUTH[@]}" --json | grep -q '"remote_shards":2' \
  || fail "both peers should have run a shard"
echo "fleet == one box: $(best_cost "$FLEET")"

echo "== compile-verdict replication A -> peers =="
# A's scatter compiled simple-ota on B and C; each pushed nothing (the
# verdict came from their own compile), but A compiled it too and pushed
# to both. A fresh topology through A must land verdicts on the peers.
"$ASTRX" submit ota --socket "$DIR/a.sock" "${AUTH[@]}" --moves 300 --runs 3 --wait --json >/dev/null \
  || fail "ota scatter failed"
STATS_B=$("$ASTRX" stats --socket "tcp:127.0.0.1:$PORT_B" "${AUTH[@]}" --json)
grep -qE '"verdicts":\{[^}]*"(inbound_pushes|served_lookups)":[1-9]' <<<"$STATS_B" \
  || fail "peer B never saw verdict replication traffic"

echo "== kill a peer mid-job; steal must not change the bits =="
REF2=$("$ASTRX" submit simple-ota --socket "$DIR/d.sock" --seed 9 --moves 2500 --runs 6 --wait --json)
grep -q '"state":"done"' <<<"$REF2" || fail "second reference job did not finish"
ID=$("$ASTRX" submit simple-ota --socket "$DIR/a.sock" "${AUTH[@]}" --seed 9 --moves 2500 --runs 6 --json \
  | sed 's/[^0-9]//g')
sleep 1.5
kill -9 "$PID_C" 2>/dev/null || true
RES=""
for _ in $(seq 1 600); do
  RES=$("$ASTRX" result "$ID" --socket "$DIR/a.sock" "${AUTH[@]}" --json)
  grep -q '"state":"\(done\|failed\)"' <<<"$RES" && break
  sleep 0.2
done
grep -q '"state":"done"' <<<"$RES" || fail "fleet job did not survive the dead peer: $RES"
if [ "$(best_cost "$REF2")" != "$(best_cost "$RES")" ]; then
  fail "post-steal winner $(best_cost "$RES") != single box $(best_cost "$REF2")"
fi
"$ASTRX" stats --socket "$DIR/a.sock" "${AUTH[@]}" --json | grep -qE '"steals":[1-9]' \
  || fail "no steal recorded"
echo "steal == one box: $(best_cost "$RES")"

echo "== winner-corpus replication and resynthesize =="
# Recording into the winner corpus is always on (consumption is what
# --warm-start gates), so the coordinator's merged winners are already in
# its corpus and pushed to the surviving peer.
SHAPE=$("$ASTRX" hash simple-ota | sed -n 's/^shape //p')
[ -n "$SHAPE" ] || fail "astrx hash printed no shape"
CORPUS_A=$("$ASTRX" corpus "$SHAPE" --socket "$DIR/a.sock" "${AUTH[@]}" --json)
grep -q '"shape"' <<<"$CORPUS_A" || fail "coordinator corpus is empty for shape $SHAPE"
CORPUS_B=""
for _ in $(seq 1 50); do
  CORPUS_B=$("$ASTRX" corpus "$SHAPE" --socket "tcp:127.0.0.1:$PORT_B" "${AUTH[@]}" --json)
  grep -q '"shape"' <<<"$CORPUS_B" && break
  sleep 0.1
done
grep -q '"shape"' <<<"$CORPUS_B" || fail "winner never replicated to peer B"
echo "corpus for $SHAPE on coordinator and peer B"
# The fast path: rerun the reference job with a tweaked ugf target, warm
# from its recorded winner, on the reduced schedule.
REF_ID=$(grep -o '"id":[0-9]*' <<<"$REF2" | head -1 | sed 's/[^0-9]//g')
[ -n "$REF_ID" ] || fail "reference job record carries no id"
# --runs 1: the single restart is the warm-seeded one, so the winner's
# recorded seed label is deterministic.
RZ=$("$ASTRX" resynthesize "$REF_ID" --socket "$DIR/d.sock" --set ugf=45meg --runs 1 --wait --json)
grep -q '"state":"done"' <<<"$RZ" || fail "resynthesize job did not finish: $RZ"
grep -q '"warm":' <<<"$RZ" || fail "resynthesize result records no warm seed"
grep -q '#resynth:'"$REF_ID" <<<"$RZ" || fail "resynthesize job does not name its parent"
echo "resynthesize of job $REF_ID: done, warm-seeded"

echo "== drain =="
"$ASTRX" shutdown --socket "$DIR/a.sock" "${AUTH[@]}"
"$ASTRX" shutdown --socket "tcp:127.0.0.1:$PORT_B" "${AUTH[@]}"
"$ASTRX" shutdown --socket "$DIR/d.sock"
sleep 1
for tag in a b d; do
  [ -S "$DIR/$tag.sock" ] && fail "daemon $tag left its socket behind"
done
if "$ASTRX" stats --socket "tcp:127.0.0.1:$PORT_A" "${AUTH[@]}" --json >/dev/null 2>&1; then
  fail "coordinator TCP listener survived the drain"
fi
rm -f "$DIR"/*.pid

echo "fleet-smoke: OK"
