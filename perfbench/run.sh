#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it:
#
#   bash perfbench/run.sh --workload awe-synth --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --self-test
#
# The build goes to the checkout's own _build directory, with dune's shared
# cache off, so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib/core ]; then
  echo "perfbench: $root holds no checkout of the repository to build" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
