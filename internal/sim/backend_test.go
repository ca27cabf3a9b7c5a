package sim

// Differential tests for the pluggable drain-side backend.  The contract
// mirrors org_test.go's: every degenerate shape — banked with one bank,
// banked with default row latencies at any bank count, fenced with zero
// costs — must be byte-identical to the flat backend across the whole
// PR-6 differential matrix, and every non-degenerate shape must preserve
// the fused-path invariants (Run ≡ Step, zero steady-state
// allocation) even though its timing legitimately differs.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

// degenerateBackends are the shapes that must reproduce flat exactly.
// RowHit/RowMiss left zero mean "the machine's flat write cost", so bank
// busy-until never extends past the port hold regardless of bank count,
// and a fenced wrap with zero costs adds nothing to any barrier.
func degenerateBackends() map[string]backend.Spec {
	return map[string]backend.Spec{
		"banked-1":     backend.BankedSpec{Banks: 1},
		"banked-4-def": backend.BankedSpec{Banks: 4},
		"fenced-0":     backend.FencedSpec{},
		"fenced-bank":  backend.FencedSpec{Inner: backend.BankedSpec{Banks: 4}},
	}
}

// backendBenches extends the fused matrix's benchmarks with the two
// stress scenarios, so the degenerate equivalence also covers streams
// that actually carry release and membar refs.
func backendBenches() []string {
	return append(append([]string{}, fusedBenches...), "burstw", "fenceprod")
}

// TestBackendDegenerateMatchesFlat runs every fused-matrix configuration
// and benchmark once with the implicit flat backend and once per
// degenerate shape, and requires identical observable state.  The
// write-cache configuration rides along to pin that the backend times the
// victim buffer's drains the same way.
func TestBackendDegenerateMatchesFlat(t *testing.T) {
	const n = 40_000
	shapes := degenerateBackends()
	for name, cfg := range fusedConfigs() {
		for _, bench := range backendBenches() {
			b, ok := workload.ByName(bench)
			if !ok {
				t.Fatalf("unknown benchmark %q", bench)
			}
			flat := MustNew(cfg)
			runFused(flat, b.Stream(n), n)
			want := snapshot(flat)

			for shape, spec := range shapes {
				m := MustNew(cfg.WithBackend(spec))
				runFused(m, b.Stream(n), n)
				if got := snapshot(m); !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s: degenerate %s diverged from flat\nflat:    %+v\nbackend: %+v",
						name, bench, shape, want, got)
				}
			}

			// One legacy-path run per cell keeps the per-reference path
			// honest without quadrupling the matrix.
			legacy := MustNew(cfg.WithBackend(backend.BankedSpec{Banks: 1}))
			runLegacy(legacy, b.Stream(n), n)
			if got := snapshot(legacy); !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: banked{1} legacy diverged from flat\nflat:   %+v\nbanked: %+v",
					name, bench, want, got)
			}
		}
	}
}

// bankedShapes are the non-degenerate backends the equivalence and
// allocation tests sweep: row-miss contention alone, bank spreading with
// row locality, a fenced wrap over banks, and banked under ftl striping
// (the pairing the backend exists for).
func bankedShapes() map[string]Config {
	return map[string]Config{
		"banked-1-slow": Baseline().WithBackend(backend.BankedSpec{Banks: 1, RowMiss: 30}),
		"banked-8":      Baseline().WithDepth(8).WithBackend(backend.BankedSpec{Banks: 8, RowHit: 6, RowMiss: 18}),
		"banked-rowloc": Baseline().WithDepth(8).WithBackend(backend.BankedSpec{Banks: 4, RowHit: 6, RowMiss: 30, RowLines: 16}),
		"fenced-banked": Baseline().WithBackend(backend.FencedSpec{
			Inner: backend.BankedSpec{Banks: 4, RowMiss: 18}, ReleaseCost: 4, FullCost: 20}),
		"ftl-banked": Baseline().WithDepth(8).WithOrg(core.FTLOrg{NumBuffers: 4}).
			WithBackend(backend.BankedSpec{Banks: 4, RowMiss: 18}),
		"wcache-banked": Baseline().WithWriteCache(8).
			WithBackend(backend.BankedSpec{Banks: 4, RowMiss: 18}),
	}
}

// TestBankedFusedMatchesLegacy extends the PR-6 old-vs-new differential
// to non-degenerate backends: the batched path must reproduce
// per-reference stepping bit for bit under bank queueing, row misses, and
// fence surcharges.
func TestBankedFusedMatchesLegacy(t *testing.T) {
	const n = 40_000
	for name, cfg := range bankedShapes() {
		for _, bench := range backendBenches() {
			b, _ := workload.ByName(bench)
			legacy := MustNew(cfg)
			runLegacy(legacy, b.Stream(n), n)
			fused := MustNew(cfg)
			runFused(fused, b.Stream(n), n)
			if want, got := snapshot(legacy), snapshot(fused); !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: fused path diverged\nlegacy: %+v\nfused:  %+v",
					name, bench, want, got)
			}
		}
	}
}

// TestBankedChangesTiming is the sanity check that the backend is a real
// axis: a slow row-miss service must diverge from flat on the bursty
// writer and leave its tracks in the backend counters.
func TestBankedChangesTiming(t *testing.T) {
	const n = 40_000
	b, ok := workload.ByName("burstw")
	if !ok {
		t.Fatal("burstw scenario not registered")
	}
	cfg := Baseline().WithDepth(8)
	flat := MustNew(cfg)
	runFused(flat, b.Stream(n), n)
	banked := MustNew(cfg.WithBackend(backend.BankedSpec{Banks: 2, RowMiss: 30}))
	runFused(banked, b.Stream(n), n)
	if reflect.DeepEqual(snapshot(flat), snapshot(banked)) {
		t.Error("banked{2, rowmiss=30} matched flat on burstw; the backend has no effect")
	}
	bs := banked.BackendStats()
	if bs.Writes == 0 || bs.RowMisses == 0 {
		t.Errorf("banked counters empty after a divergent run: %+v", bs)
	}
	if bs.BankConflicts == 0 {
		t.Errorf("no bank conflicts recorded under a deep store burst: %+v", bs)
	}
}

// TestFencedChangesTiming pins the two halves of the fence split
// separately: a full-membar surcharge must move fenceprod, and so must a
// release surcharge on its own — releases outnumber membars four to one
// there, which is the asymmetry the fenced backend exists to price.
func TestFencedChangesTiming(t *testing.T) {
	const n = 40_000
	b, ok := workload.ByName("fenceprod")
	if !ok {
		t.Fatal("fenceprod scenario not registered")
	}
	cfg := Baseline().WithDepth(8)
	flat := MustNew(cfg)
	runFused(flat, b.Stream(n), n)
	want := snapshot(flat)

	full := MustNew(cfg.WithBackend(backend.FencedSpec{FullCost: 20}))
	runFused(full, b.Stream(n), n)
	if reflect.DeepEqual(want, snapshot(full)) {
		t.Error("fenced{full=20} matched flat on fenceprod; membar surcharge has no effect")
	}
	rel := MustNew(cfg.WithBackend(backend.FencedSpec{ReleaseCost: 4}))
	runFused(rel, b.Stream(n), n)
	relSnap := snapshot(rel)
	if reflect.DeepEqual(want, relSnap) {
		t.Error("fenced{release=4} matched flat on fenceprod; release surcharge has no effect")
	}
	// The release surcharge lands in the release stall bucket, not the
	// membar one — the split satellite this PR carries.
	dRel := rel.Counters().Stalls[stats.ReleaseDrain] - flat.Counters().Stalls[stats.ReleaseDrain]
	if dRel == 0 {
		t.Error("release surcharge did not move the release-drain stall counter")
	}
}

// TestZeroAllocSteadyStateBanked extends the tentpole allocation contract
// to the backend shapes: bank queueing, row tracking, and fence
// surcharges must all reuse existing storage.
func TestZeroAllocSteadyStateBanked(t *testing.T) {
	refs := benchRefs(1 << 12)
	for name, cfg := range bankedShapes() {
		m := MustNew(cfg)
		m.StepBatch(refs)
		i := 0
		if avg := testing.AllocsPerRun(200, func() {
			m.Step(refs[i&(len(refs)-1)])
			i++
		}); avg != 0 {
			t.Errorf("%s: Step allocates %.1f per call in steady state", name, avg)
		}
		if avg := testing.AllocsPerRun(50, func() {
			m.StepBatch(refs)
		}); avg != 0 {
			t.Errorf("%s: StepBatch allocates %.1f per batch in steady state", name, avg)
		}
	}
}

// TestPublishMetricsBackendSamples checks that a banked machine exports
// the sim_backend_* series through the shared registry and that a flat
// machine exports none — the /metrics surface predating the backend axis
// is unchanged.
func TestPublishMetricsBackendSamples(t *testing.T) {
	const n = 40_000
	b, _ := workload.ByName("burstw")
	m := MustNew(Baseline().WithDepth(8).WithBackend(
		backend.BankedSpec{Banks: 4, RowHit: 6, RowMiss: 18}))
	runFused(m, b.Stream(n), n)
	reg := metrics.NewRegistry()
	m.PublishMetrics(reg)
	snap := reg.Snapshot()
	for _, name := range []string{
		"sim_backend_writes_total",
		"sim_backend_row_misses_total",
	} {
		if snap[name] == 0 {
			t.Errorf("%s missing or zero after a banked run", name)
		}
	}

	flat := MustNew(Baseline())
	runFused(flat, b.Stream(n), n)
	flatReg := metrics.NewRegistry()
	flat.PublishMetrics(flatReg)
	for name := range flatReg.Snapshot() {
		if strings.HasPrefix(name, "sim_backend_") {
			t.Errorf("flat machine exported backend series %q", name)
		}
	}
}
