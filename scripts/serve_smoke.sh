#!/usr/bin/env bash
# End-to-end smoke test of the oblxd daemon (docs/SERVER.md): boot it,
# prove the compile cache hits on a repeated topology, prove cancellation
# propagates cut_reason, serve two clients at once, survive a kill -9 with
# the job log answering for pre-restart ids, and shut down cleanly. CI
# runs this as the serve-smoke job; locally it is `make serve-smoke`.
# Everything lives in a temp dir, nothing is left behind.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/oblxd.exe bin/astrx.exe

OBLXD=_build/default/bin/oblxd.exe
ASTRX=_build/default/bin/astrx.exe
DIR=$(mktemp -d)
SOCK="$DIR/oblxd.sock"

fail() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }
cleanup() {
  if [ -n "${DAEMON_PID:-}" ]; then kill "$DAEMON_PID" 2>/dev/null || true; fi
  rm -rf "$DIR"
}
trap cleanup EXIT

"$OBLXD" --socket "$SOCK" --workers 1 --state-dir "$DIR/state" &
DAEMON_PID=$!

for _ in $(seq 1 50); do
  if [ -S "$SOCK" ]; then break; fi
  sleep 0.1
done
if [ ! -S "$SOCK" ]; then fail "daemon socket never appeared"; fi

echo "== first submission (compile miss) =="
OUT1=$("$ASTRX" submit simple-ota --socket "$SOCK" --moves 500 --wait --json)
echo "$OUT1"
echo "$OUT1" | grep -q '"state":"done"' || fail "first job did not finish"
echo "$OUT1" | grep -q '"cache":"miss"' || fail "first job should miss the cache"

echo "== second submission (cache hit) =="
OUT2=$("$ASTRX" submit simple-ota --socket "$SOCK" --seed 2 --moves 500 --wait --json)
echo "$OUT2" | grep -q '"state":"done"' || fail "second job did not finish"
echo "$OUT2" | grep -q '"cache":"hit"' || fail "second submission should hit the compile cache"

echo "== cancellation propagates cut_reason =="
ID=$("$ASTRX" submit simple-ota --socket "$SOCK" --moves 20000000 --json | sed 's/[^0-9]//g')
sleep 0.5
"$ASTRX" cancel "$ID" --socket "$SOCK"
RES=""
for _ in $(seq 1 100); do
  RES=$("$ASTRX" result "$ID" --socket "$SOCK" --json)
  if echo "$RES" | grep -q '"state":"cancelled"'; then break; fi
  sleep 0.1
done
echo "$RES" | grep -q '"state":"cancelled"' || fail "cancelled job never reached state=cancelled"
echo "$RES" | grep -q '"cut_reason":"cancelled"' || fail "cut_reason not propagated to the job record"

echo "== stats =="
"$ASTRX" stats --socket "$SOCK"
"$ASTRX" stats --socket "$SOCK" --json | grep -q '"hit_rate"' || fail "stats carry no cache hit rate"
"$ASTRX" stats --socket "$SOCK" --json | grep -q '"connections"' || fail "stats carry no connection counters"

echo "== two concurrent clients =="
"$ASTRX" submit simple-ota --socket "$SOCK" --seed 11 --moves 4000 --wait --json > "$DIR/c1.json" &
C1=$!
"$ASTRX" submit simple-ota --socket "$SOCK" --seed 12 --moves 4000 --wait --json > "$DIR/c2.json" &
C2=$!
# A third client must be answered while both waiters are in flight.
"$ASTRX" stats --socket "$SOCK" --json >/dev/null || fail "stats blocked behind in-flight clients"
wait "$C1" || fail "first concurrent client failed"
wait "$C2" || fail "second concurrent client failed"
grep -q '"state":"done"' "$DIR/c1.json" || fail "first concurrent job did not finish"
grep -q '"state":"done"' "$DIR/c2.json" || fail "second concurrent job did not finish"

echo "== kill -9, restart, job-log replay =="
DONE_ID=$(grep -o '"id":[0-9]*' "$DIR/c1.json" | head -1 | sed 's/[^0-9]//g')
# Leave a job running when the daemon dies: it cannot be resumed and must
# be replayed as failed("daemon restarted").
ORPHAN_ID=$("$ASTRX" submit simple-ota --socket "$SOCK" --moves 20000000 --json | sed 's/[^0-9]//g')
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
"$OBLXD" --socket "$SOCK" --workers 1 --state-dir "$DIR/state" &
DAEMON_PID=$!
for _ in $(seq 1 50); do
  if "$ASTRX" stats --socket "$SOCK" --json >/dev/null 2>&1; then break; fi
  sleep 0.1
done
RES=$("$ASTRX" result "$DONE_ID" --socket "$SOCK" --json) || fail "restarted daemon does not know job $DONE_ID"
echo "$RES" | grep -q '"state":"done"' || fail "replayed job $DONE_ID lost its result"
echo "$RES" | grep -q '"best_cost"' || fail "replayed job $DONE_ID lost its best cost"
ORES=$("$ASTRX" result "$ORPHAN_ID" --socket "$SOCK" --json) || fail "restarted daemon does not know job $ORPHAN_ID"
echo "$ORES" | grep -q '"state":"failed"' || fail "interrupted job $ORPHAN_ID not failed on replay"
echo "$ORES" | grep -q 'daemon restarted' || fail "interrupted job $ORPHAN_ID lacks the restart verdict"
"$ASTRX" stats --socket "$SOCK" --json | grep -q '"restored_jobs"' || fail "stats carry no restored_jobs"

echo "== clean shutdown =="
"$ASTRX" shutdown --socket "$SOCK"
for _ in $(seq 1 100); do
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then break; fi
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then fail "daemon still alive after shutdown"; fi
if [ -S "$SOCK" ]; then fail "socket file not removed on shutdown"; fi
DAEMON_PID=
grep -q '"log":"finish"' "$DIR/state/jobs.log" || fail "no finished-job records in the state dir's journal"

echo "serve-smoke: OK"
