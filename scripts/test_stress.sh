#!/usr/bin/env bash
# Reruns the daemon's "server" and "fleet" test groups (test/test_serve.ml)
# under CPU contention: two busy loops run beside the tests, the way a
# loaded CI runner or a shared box starves the daemon's threads. Fails on
# the first failing run, and on any run that takes longer than 10 minutes
# (a teardown that hangs instead of failing). `make test-stress`; the
# number of runs is the optional first argument (default 20).
set -euo pipefail

cd "$(dirname "$0")/.."
RUNS=${1:-20}
dune build test/test_serve.exe
TEST=_build/default/test/test_serve.exe
DIR=$(mktemp -d)

BUSY=()
cleanup() {
  for pid in "${BUSY[@]}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$DIR"
}
trap cleanup EXIT
for _ in 1 2; do
  (while :; do :; done) &
  BUSY+=($!)
done

for run in $(seq 1 "$RUNS"); do
  start=$(date +%s)
  status=0
  timeout 600 "$TEST" test 'server|fleet' -o "$DIR" > "$DIR/run.log" 2>&1 || status=$?
  if [ "$status" -ne 0 ]; then
    cat "$DIR/run.log" >&2
    if [ "$status" -eq 124 ]; then
      echo "test-stress: FAIL: run $run took longer than 10 min" >&2
    else
      echo "test-stress: FAIL: run $run (exit $status)" >&2
    fi
    exit 1
  fi
  echo "test-stress: run $run/$RUNS ok ($(( $(date +%s) - start )) s)"
done
echo "test-stress: OK"
