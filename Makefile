# Convenience targets; dune is the real build system.

.PHONY: all build test golden-check bench bench-quick bench-perf-check bench-serve bench-serve-concurrent bench-serve-fleet bench-sweep bench-warm-start bench-compare trace-replay serve-smoke fleet-smoke test-stress clean

# One UTC stamp per make invocation; every bench target passes it down so
# each artifact lands both at <name>-latest.json and as an immutable
# <name>-$(RUNSTAMP).json copy (diffed by scripts/bench_compare.sh).
RUNSTAMP ?= $(shell date -u +%Y%m%dT%H%M%SZ)

all: build

build:
	dune build @all

test:
	dune runtest

# Regenerate the golden trace and require it byte-identical to the
# committed test/golden/simple_ota.jsonl: the bit-for-bit check behind
# "incremental = full" refactors of the evaluator. Not a CI gate: the
# golden test itself compares with a 1e-9 tolerance because another
# build's libm may differ in the last bit.
golden-check:
	@dune build ./test/gen_golden.exe
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	./_build/default/test/gen_golden.exe "$$tmp" >/dev/null; \
	if cmp -s "$$tmp" test/golden/simple_ota.jsonl; then \
	  echo "golden-check: trace byte-identical"; \
	else \
	  line=$$(cmp "$$tmp" test/golden/simple_ota.jsonl | sed -n 's/.* line \([0-9]*\).*/\1/p'); \
	  echo "golden-check: trace differs at line $${line:-?}"; \
	  echo "  committed:   $$(sed -n "$${line:-1}p" test/golden/simple_ota.jsonl)"; \
	  echo "  regenerated: $$(sed -n "$${line:-1}p" "$$tmp")"; \
	  exit 1; \
	fi

# Every paper table/figure (~15 min).
bench:
	dune exec bench/main.exe -- --runstamp $(RUNSTAMP)

# Small-budget multi-start scaling measurement; writes
# bench/results/perf-parallel-latest.json (used by CI as an artifact).
bench-quick:
	dune exec bench/main.exe -- perf-parallel --moves 2000 --runs 4 --runstamp $(RUNSTAMP)

# bench-quick plus the regression gate: exits non-zero when the jobs=4
# speedup drops below the floor, scaled for the host's core count
# (docs/PARALLEL.md, "reading perf-parallel JSON"). CI runs this against
# the committed bench/results/perf-parallel-latest.json.
PERF_FLOOR ?= 2.0
bench-perf-check:
	dune exec bench/main.exe -- perf-parallel --moves 2000 --runs 4 --floor $(PERF_FLOOR) --runstamp $(RUNSTAMP)

# Record simple-ota traces sequentially and domain-parallel, then replay
# both against the compiled cost function (docs/OBSERVABILITY.md) — the
# telemetry side of the --jobs determinism guarantee.
trace-replay:
	mkdir -p bench/results
	dune exec bin/astrx.exe -- bench simple-ota --no-verify --moves 2000 --runs 4 --jobs 1 \
		--trace bench/results/trace-jobs1.jsonl
	dune exec bin/astrx.exe -- replay simple-ota bench/results/trace-jobs1.jsonl
	dune exec bin/astrx.exe -- bench simple-ota --no-verify --moves 2000 --runs 4 --jobs 4 \
		--trace bench/results/trace-jobs4.jsonl
	dune exec bin/astrx.exe -- replay simple-ota bench/results/trace-jobs4.jsonl

# Small-budget run of the oblxd job-service bench (docs/SERVER.md); writes
# bench/results/serve-latest.json with throughput, queue-wait percentiles,
# cache hit rate, and the deadline/determinism checks.
bench-serve:
	dune exec bench/main.exe -- serve --moves 300 --runstamp $(RUNSTAMP)

# The daemon under simultaneous clients: stats latency with idle
# connections held, over-cap rejection, and parallel submit/wait
# throughput; writes bench/results/serve-concurrent-latest.json.
bench-serve-concurrent:
	dune exec bench/main.exe -- serve-concurrent --moves 300 --runstamp $(RUNSTAMP)

# Three in-process daemons over loopback TCP: scatter/steal/merge
# determinism vs one box, steal-recovery latency, hundreds of concurrent
# clients, and the replicated compile cache's remote hit rate; writes
# bench/results/serve-fleet-latest.json.
bench-serve-fleet:
	dune exec bench/main.exe -- serve-fleet --moves 300 --runstamp $(RUNSTAMP)

# One netlist swept over a corners x spec-overrides grid through the
# pool's sweep verb: gates exactly one compile per distinct
# (canon, corner) key via the cache counters, and byte-identical verdict
# tables on 1-worker vs 4-worker pools; writes
# bench/results/sweep-latest.json.
bench-sweep:
	dune exec bench/main.exe -- sweep --moves 200 --runstamp $(RUNSTAMP)

# The resynthesize scenario measured end to end: a cold run vs one seeded
# from the parent winner (values + learned Hustin distribution) on a
# spec-retargeted problem, scored by moves-to-target, plus the warm-off
# bit-identity guard; writes bench/results/warm-start-latest.json.
# WARM_FLOOR gates the best cold/warm ratio; unlike PERF_FLOOR it needs
# no core-count scaling (the win is sample efficiency).
WARM_FLOOR ?= 1.5
bench-warm-start:
	dune exec bench/main.exe -- warm-start --floor $(WARM_FLOOR) --runstamp $(RUNSTAMP)

# Diff the working tree's <name>-latest.json artifacts against the
# committed baselines (git show HEAD:...), printing per-metric deltas.
bench-compare:
	bash scripts/bench_compare.sh

# Boot the daemon, exercise submit/cache-hit/cancel/shutdown over the
# socket (scripts/serve_smoke.sh; the CI serve-smoke job).
serve-smoke:
	bash scripts/serve_smoke.sh

# Three real oblxd daemons on authenticated loopback TCP: coordinator
# scatter, peer kill -9 mid-job, bit-identity vs a standalone daemon
# (scripts/fleet_smoke.sh; runs in CI next to serve-smoke).
fleet-smoke:
	bash scripts/fleet_smoke.sh

# The daemon's "server" and "fleet" test groups, 20 runs beside two busy
# loops: fails on the first failure or on a run past 10 min
# (scripts/test_stress.sh; a CI step).
test-stress:
	bash scripts/test_stress.sh

clean:
	dune clean
	rm -f oblxd.sock
	rm -rf oblxd-state
