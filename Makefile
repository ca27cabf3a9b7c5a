# Convenience targets; CI runs the same commands (see .github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race vet bench bench-sim bench-sim-smoke bench-explore smoke-explore smoke-ftl smoke-banked chaos serve-smoke scrub-smoke

all: vet build test

build:
	$(GO) build ./...
	$(GO) build ./examples/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench runs the repository's benchmark smoke set: the simulator hot path,
# one figure regeneration, and the explore-subsystem micro-benchmark below.
bench: bench-explore
	$(GO) test -bench BenchmarkStep -benchtime 100000x -run '^$$' ./internal/sim/
	$(GO) test -bench 'BenchmarkSimulatorThroughput|BenchmarkFig5' -benchtime 1x -run '^$$' .

# bench-sim measures raw simulator throughput (fused and lockstep-row
# paths) over the 17-benchmark suite and writes BENCH_sim.json —
# the committed reference point for the hot path's aggregate MIPS.
# Regenerate it on the machine you care about; docs/PERFORMANCE.md
# explains the fields and the measurement protocol (2e6 instructions per
# bench keeps per-bench wall time comfortably above timer and scheduler
# noise).
bench-sim:
	$(GO) run ./cmd/wbbench -n 2000000 -repeat 3 -out BENCH_sim.json
	@cat BENCH_sim.json

# bench-sim-smoke is the CI gate: a shortened fused and row run that must
# parse the committed BENCH_sim.json and land within 20% of both its fused
# and its row aggregate MIPS.  It catches structural regressions
# (de-batched hot path, per-step allocations, a row that regenerates its
# stream), not single-digit drift.
bench-sim-smoke:
	$(GO) run ./cmd/wbbench -n 500000 -quiet -repeat 5 \
		-baseline BENCH_sim.json -max-regress 0.20 > /dev/null

# bench-explore runs a small guided wbopt search and records its throughput
# (jobs/sec) and pruning counters in BENCH_explore.json.  The committed file
# is the reference point; regenerate it on the machine you care about.
bench-explore:
	$(GO) run ./cmd/wbopt -space spaces/smoke.json -n 200000 -seed 1 -quiet \
		-stats-out BENCH_explore.json
	@cat BENCH_explore.json

# chaos runs the deterministic fault-injection suite under the race
# detector: every faultline scenario (crash, hang, slow, corrupt, bitflip,
# 5xx storm, partition) must still yield byte-identical sweep results.
chaos:
	$(GO) test -race -run 'TestChaos' ./internal/faultline/ ./internal/explore/

# smoke-explore is the CI acceptance smoke: a guided search over the 2-axis
# smoke space must exit 0 and put a read-from-WB machine on its frontier.
smoke-explore:
	$(GO) run ./cmd/wbopt -space spaces/smoke.json -n 100000 -seed 1 -quiet \
		-out /tmp/wbopt-smoke.json
	grep -q 'read-from-WB' /tmp/wbopt-smoke.json
	grep -q '"frontier": \[' /tmp/wbopt-smoke.json

# smoke-ftl is the organization-sweep acceptance smoke: an exhaustive
# wbopt grid over the ftl smoke space must exit 0 and evaluate ftl
# machines, and — the byte-reproducibility contract extended to
# organizations — a second same-seed run must produce an identical
# artifact.
smoke-ftl:
	$(GO) run ./cmd/wbopt -space spaces/ftl-smoke.json -strategy grid \
		-n 100000 -seed 1 -quiet -out /tmp/wbopt-ftl-a.json
	$(GO) run ./cmd/wbopt -space spaces/ftl-smoke.json -strategy grid \
		-n 100000 -seed 1 -quiet -out /tmp/wbopt-ftl-b.json
	cmp /tmp/wbopt-ftl-a.json /tmp/wbopt-ftl-b.json
	grep -q 'org=ftl' /tmp/wbopt-ftl-a.json
	grep -q '"frontier": \[' /tmp/wbopt-ftl-a.json

# smoke-banked is the backend-sweep acceptance smoke: the tiny
# banked+fence grid (spaces/banked-smoke.json) run locally, through a
# wbserve worker with a resume from a cut-down result store, and as a pure
# store replay must render byte-identical frontier artifacts — the reproducibility
# recipe behind results/banked_frontier.json.
smoke-banked:
	bash scripts/banked_smoke.sh

# serve-smoke is the platform durability gate: a real wbserve process with
# a durable store+queue is SIGKILLed mid-sweep and restarted; the sweep
# must complete from the journal, byte-identical to an unkilled run.  See
# docs/SERVING.md for the recovery semantics this exercises.
serve-smoke:
	bash scripts/serve_smoke.sh

# scrub-smoke is the self-healing gate: one wbserve with a two-replica
# store, bearer-token auth, and -supervise takes a bit-flip on a stored
# entry and a SIGKILLed worker mid-sweep, and must finish byte-identical
# to a fault-free baseline with the corruption quarantined and repaired.
# See the disk-fault runbook in docs/SERVING.md.
scrub-smoke:
	bash scripts/scrub_smoke.sh
