package sim

// Differential tests pinning the batched hot path (Run / StepBatch / the
// flattened policy dispatch) to the per-reference path (Stream.Next +
// Step).  The fused path is allowed to be faster, never
// different: identical counters, stall attribution, occupancy histograms,
// and CPI on the same decoded reference sequence, to the last bit.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// machineState captures everything a measurement can observe.
type machineState struct {
	counters interface{}
	occ      []uint64
	clock    uint64
	wb       core.Stats
	l1, l2   cache.Stats
	cpi      float64
}

func snapshot(m *Machine) machineState {
	c := m.Counters()
	return machineState{
		counters: c,
		occ:      m.OccupancyHistogram(),
		clock:    m.Clock(),
		wb:       m.WBStats(),
		l1:       m.L1Stats(),
		l2:       m.L2Stats(),
		cpi:      c.CPI(),
	}
}

// stepAll is the per-reference oracle: the stream to exhaustion, one
// Step per reference.
func stepAll(m *Machine, s trace.Stream) {
	for {
		r, ok := s.Next()
		if !ok {
			return
		}
		m.Step(r)
	}
}

// runLegacy is the seed job shape: per-reference stepping with the
// standard quarter-stream warm-up split.
func runLegacy(m *Machine, s trace.Stream, n uint64) {
	for i := uint64(0); i < n/4; i++ {
		r, ok := s.Next()
		if !ok {
			break
		}
		m.Step(r)
	}
	m.ResetStats()
	stepAll(m, s)
}

// runFused is the production job shape: batched generator execution with
// the same warm-up split in dynamic instructions, as a one-machine row.
func runFused(m *Machine, s trace.Stream, n uint64) {
	runRow([]*Machine{m}, s, n/4)
}

func runRow(ms []*Machine, g trace.Generator, warm uint64) {
	if err := NewRow(ms).Run(context.Background(), g, warm); err != nil {
		panic(err)
	}
}

// fusedConfigs is the seeded config sample the differential runs over:
// every flattened retirement policy, every hazard policy, plus finite-L2,
// superscalar, and write-cache variants.
func fusedConfigs() map[string]Config {
	return map[string]Config{
		"baseline":    Baseline(),
		"eager":       Baseline().WithRetire(core.Eager{}),
		"retire-age":  Baseline().WithDepth(8).WithRetire(core.RetireAt{N: 6, Timeout: 64}),
		"fixed-rate":  Baseline().WithRetire(core.FixedRate{Interval: 24}),
		"read-wb":     Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB),
		"flush-part":  Baseline().WithHazard(core.FlushPartial),
		"flush-item":  Baseline().WithHazard(core.FlushItemOnly),
		"finite-l2":   Baseline().WithL2(256 << 10).WithMemLat(25),
		"issue-4":     Baseline().WithIssueWidth(4),
		"write-cache": Baseline().WithWriteCache(8),
		"imiss":       func() Config { c := Baseline(); c.IMissRate = 0.02; c.ISeed = 7; return c }(),
	}
}

// fusedBenches spans the workload space: list-chasing integer, tight FP
// loop, and a store-dense kernel.
var fusedBenches = []string{"li", "compress", "tomcatv", "cholsky"}

// TestRunGeneratorMatchesRun is the old-vs-new differential promised in
// the Run doc: over a seeded sample of configurations and
// benchmarks, the batched path must reproduce the per-reference path's
// stall counts, occupancy histograms, and CPI exactly.
func TestRunGeneratorMatchesRun(t *testing.T) {
	const n = 40_000
	for name, cfg := range fusedConfigs() {
		for _, bench := range fusedBenches {
			b, ok := workload.ByName(bench)
			if !ok {
				t.Fatalf("unknown benchmark %q", bench)
			}
			legacy := MustNew(cfg)
			runLegacy(legacy, b.Stream(n), n)
			fused := MustNew(cfg)
			runFused(fused, b.Stream(n), n)
			want, got := snapshot(legacy), snapshot(fused)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: fused path diverged\nlegacy: %+v\nfused:  %+v",
					name, bench, want, got)
			}
		}
	}
}

// TestRowWarmSplitsExecRuns drives the warm-up budget through the middle
// of run-length-encoded Exec refs: any split point must leave every row
// machine exactly where the same number of per-reference Steps would,
// with the run remainder executed after the statistics reset.
func TestRowWarmSplitsExecRuns(t *testing.T) {
	refs := []trace.Ref{
		trace.ExecRun(10),
		{Kind: trace.Store, Addr: 0x40},
		trace.ExecRun(7),
		{Kind: trace.Load, Addr: 0x40},
		trace.ExecRun(23),
		{Kind: trace.Load, Addr: 0x2000},
		trace.ExecRun(5),
	}
	total := uint64(0)
	for _, r := range refs {
		total += r.InstrCount()
	}
	for split := uint64(0); split <= total; split++ {
		legacy := MustNew(Baseline())
		s := trace.NewGeneratorStream(trace.NewSliceStream(refs))
		for i := uint64(0); i < split; i++ {
			r, _ := s.Next()
			legacy.Step(r)
		}
		legacy.ResetStats()
		stepAll(legacy, s)

		row := []*Machine{MustNew(Baseline()), MustNew(Baseline())}
		runRow(row, trace.NewSliceStream(refs), split)

		want := snapshot(legacy)
		for i, m := range row {
			if got := snapshot(m); !reflect.DeepEqual(want, got) {
				t.Fatalf("split at %d, row machine %d: diverged\nlegacy: %+v\nrow:    %+v", split, i, want, got)
			}
		}
	}
}

// TestRowMatchesSingleJobs is the lockstep contract: every machine of one
// mixed row — every fusedConfigs policy plus the ftl organization and the
// banked backend — ends exactly where the same machine run alone does,
// its L1 included (contents, LRU order, statistics).  The row holds two
// shared-L1 groups, one direct-mapped and one 2-way (so LRU stamps go
// through the shared cache), a qualifying machine alone in its geometry,
// and the machines whose L1 depends on timing (read-from-WB, write cache,
// finite L2, I-misses).  The instruction counts put the warm budget
// inside RLE Exec runs, on and off batch boundaries, and at zero (n=3).
func TestRowMatchesSingleJobs(t *testing.T) {
	twoWay := func(c Config) Config { c.L1.Assoc = 2; return c }
	cfgs := fusedConfigs()
	cfgs["ftl"] = Baseline().WithDepth(8).WithOrg(core.FTLOrg{NumBuffers: 2, SectorBits: 1})
	cfgs["banked"] = Baseline().WithBackend(backend.BankedSpec{Banks: 4, RowMiss: 18})
	cfgs["2way"] = twoWay(Baseline())
	cfgs["2way-part"] = twoWay(Baseline().WithDepth(8).WithHazard(core.FlushPartial))
	cfgs["2way-issue-4"] = twoWay(Baseline().WithIssueWidth(4))
	cfgs["l1-16k"] = Baseline().WithL1Size(16 << 10)
	var names []string
	var row []Config
	for name, cfg := range cfgs {
		names = append(names, name)
		row = append(row, cfg)
	}
	probe := make([]*Machine, len(row))
	for i, cfg := range row {
		probe[i] = MustNew(cfg)
	}
	if shape := NewRow(probe); len(shape.groups) != 2 || len(shape.groups[0].members)+len(shape.groups[1].members) != 12 {
		t.Fatalf("row has %d shared-L1 groups, want 2 holding 12 of its 17 machines", len(shape.groups))
	}
	benches := append(append([]string(nil), fusedBenches...), "fenceprod", "burstw")
	for _, n := range []uint64{3, 17_777, 40_000, 40_001} {
		for _, bench := range benches {
			b, ok := workload.ByName(bench)
			if !ok {
				t.Fatalf("unknown benchmark %q", bench)
			}
			ms := make([]*Machine, len(row))
			for i, cfg := range row {
				ms[i] = MustNew(cfg)
			}
			runRow(ms, b.Generator(n), n/4)
			for i, cfg := range row {
				alone := MustNew(cfg)
				runFused(alone, b.Stream(n), n)
				if want, got := snapshot(alone), snapshot(ms[i]); !reflect.DeepEqual(want, got) {
					t.Errorf("n=%d %s/%s: row diverged from the single job\nalone: %+v\nrow:   %+v",
						n, names[i], bench, want, got)
				}
				if !ms[i].l1.Equal(alone.l1) {
					t.Errorf("n=%d %s/%s: row machine's L1 state differs from the single job's", n, names[i], bench)
				}
			}
		}
	}
}

// TestRowCancel stops a row between batches: Run returns the context's
// error without reading the generator further.
func TestRowCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := &replayGen{refs: benchRefs(1 << 14)}
	if err := NewRow([]*Machine{MustNew(Baseline())}).Run(ctx, g, 1<<12); err != context.Canceled {
		t.Fatalf("Run on a cancelled context = %v, want context.Canceled", err)
	}
	if g.pos != 0 {
		t.Fatalf("cancelled row read %d refs", g.pos)
	}
}

// cancelAfter cancels its context on the given Fill call, so a row stops
// part-way through the stream.
type cancelAfter struct {
	g      trace.Generator
	fills  int
	cancel context.CancelFunc
}

func (c *cancelAfter) Fill(buf []trace.Ref) int {
	if c.fills--; c.fills == 0 {
		c.cancel()
	}
	return c.g.Fill(buf)
}

// TestRowCancelLeavesOwnL1s: a row cancelled mid-stream leaves every
// shared-L1 group member's own L1 exactly where the same machine's L1 is
// after the same cancelled run alone.
func TestRowCancelLeavesOwnL1s(t *testing.T) {
	b, _ := workload.ByName("compress")
	cfgs := []Config{Baseline(), Baseline().WithHazard(core.FlushPartial), Baseline().WithHazard(core.ReadFromWB)}
	run := func(ms []*Machine) {
		ctx, cancel := context.WithCancel(context.Background())
		g := &cancelAfter{g: b.Generator(100_000), fills: 3, cancel: cancel}
		if err := NewRow(ms).Run(ctx, g, 5_000); err != context.Canceled {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	}
	ms := make([]*Machine, len(cfgs))
	for i, cfg := range cfgs {
		ms[i] = MustNew(cfg)
	}
	run(ms)
	for i, cfg := range cfgs {
		alone := MustNew(cfg)
		run([]*Machine{alone})
		if want, got := snapshot(alone), snapshot(ms[i]); !reflect.DeepEqual(want, got) || !ms[i].l1.Equal(alone.l1) {
			t.Errorf("machine %d: cancelled row diverged from the cancelled single job\nalone: %+v\nrow:   %+v", i, want, got)
		}
		if ms[i].sharedL1 {
			t.Errorf("machine %d still marked as using a shared L1", i)
		}
	}
}

// TestRowUnequalL1sStepAlone: machines whose L1s differ when Run begins
// cannot share one, so their group steps the raw batch — and each still
// ends where it would alone.
func TestRowUnequalL1sStepAlone(t *testing.T) {
	li, _ := workload.ByName("li")
	tom, _ := workload.ByName("tomcatv")
	cfgs := []Config{Baseline(), Baseline().WithDepth(8)}
	build := func() []*Machine {
		ms := []*Machine{MustNew(cfgs[0]), MustNew(cfgs[1])}
		runFused(ms[0], li.Stream(20_000), 20_000) // different L1 history
		return ms
	}
	ms := build()
	row := NewRow(ms)
	if err := row.Run(context.Background(), tom.Generator(30_000), 0); err != nil {
		t.Fatal(err)
	}
	if row.groups[0].active {
		t.Fatal("group with unequal L1s shared one")
	}
	alone := build()
	for i, m := range alone {
		runRow([]*Machine{m}, tom.Generator(30_000), 0)
		if want, got := snapshot(m), snapshot(ms[i]); !reflect.DeepEqual(want, got) || !ms[i].l1.Equal(m.l1) {
			t.Errorf("machine %d diverged\nalone: %+v\nrow:   %+v", i, want, got)
		}
	}
}

// TestRowTimers: the row's generation and per-machine stepping timers
// are filled, and together fit inside the Run call.
func TestRowTimers(t *testing.T) {
	b, _ := workload.ByName("li")
	row := NewRow([]*Machine{MustNew(Baseline()), MustNew(Baseline().WithDepth(8))})
	start := time.Now()
	if err := row.Run(context.Background(), b.Generator(200_000), 50_000); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	sum := row.Gen
	for i, d := range row.Step {
		if d <= 0 {
			t.Errorf("machine %d: stepping time %v", i, d)
		}
		sum += d
	}
	if row.Gen <= 0 || sum > wall {
		t.Errorf("generation %v, generation+stepping %v, Run wall time %v", row.Gen, sum, wall)
	}
}

// opaquePolicy wraps a retirement policy in a type New's flattening switch
// does not recognise, forcing the retCustom interface path.
type opaquePolicy struct{ inner core.RetirementPolicy }

func (p opaquePolicy) NextStart(occ int, headAlloc, lastStart, now uint64) (uint64, bool) {
	return p.inner.NextStart(occ, headAlloc, lastStart, now)
}

func (p opaquePolicy) Name() string { return "opaque-" + p.inner.Name() }

// TestFlattenedPoliciesMatchInterface is the equivalence promised in the
// nextRetire doc: for every recognised policy, the flattened integer
// switch must make exactly the decisions the interface implementation
// makes.  The same workload runs once with the concrete policy (flattened)
// and once wrapped in opaquePolicy (interface slow path); all observable
// state must match.
func TestFlattenedPoliciesMatchInterface(t *testing.T) {
	policies := map[string]core.RetirementPolicy{
		"eager":      core.Eager{},
		"retire-at":  core.RetireAt{N: 3},
		"retire-age": core.RetireAt{N: 6, Timeout: 48},
		"fixed-rate": core.FixedRate{Interval: 17},
	}
	const n = 30_000
	b, _ := workload.ByName("compress")
	for name, p := range policies {
		cfg := Baseline().WithDepth(8).WithRetire(p)
		flat := MustNew(cfg)
		if flat.retKind == retCustom {
			t.Fatalf("%s: expected a flattened policy, got retCustom", name)
		}
		runFused(flat, b.Stream(n), n)

		slowCfg := cfg.WithRetire(opaquePolicy{p})
		slow := MustNew(slowCfg)
		if slow.retKind != retCustom {
			t.Fatalf("%s: opaque wrapper was unexpectedly flattened", name)
		}
		runFused(slow, b.Stream(n), n)

		if want, got := snapshot(slow), snapshot(flat); !reflect.DeepEqual(want, got) {
			t.Errorf("%s: flattened dispatch diverged from interface\ninterface: %+v\nflattened: %+v",
				name, want, got)
		}
	}
}

// TestZeroAllocSteadyState pins the tentpole's allocation contract: once a
// machine is warm, neither per-reference stepping nor the batched path may
// allocate, for any hazard policy (flushes reuse the machine's scratch
// slice) or the write-cache design — barrier drains of the write cache
// included, which return its victim and lines through the same slice.
func TestZeroAllocSteadyState(t *testing.T) {
	refs := benchRefs(1 << 12)
	fenced := append([]trace.Ref(nil), refs...)
	for j := 100; j < len(fenced); j += 97 {
		fenced[j] = trace.Ref{Kind: trace.Membar}
	}
	cases := map[string]struct {
		cfg  Config
		refs []trace.Ref
	}{
		"baseline":            {Baseline(), refs},
		"read-wb":             {Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB), refs},
		"flush-part":          {Baseline().WithHazard(core.FlushPartial), refs},
		"write-cache":         {Baseline().WithWriteCache(8), refs},
		"write-cache-barrier": {Baseline().WithWriteCache(8), fenced},
	}
	for name, tc := range cases {
		m := MustNew(tc.cfg)
		refs := tc.refs
		m.StepBatch(refs) // warm: first StepBatch allocates nothing, but caches may grow later
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
	// The full fused job shape: generator Fill + Run.  The
	// generator replays a pre-materialised batch so the measurement sees
	// only the machine's own allocations, which must be zero once the
	// batch buffer exists.
	g := &replayGen{refs: benchRefs(1 << 14)}
	m := MustNew(Baseline())
	m.Run(g) // warm: builds m.batch
	if avg := testing.AllocsPerRun(10, func() {
		g.pos = 0
		m.Run(g)
	}); avg != 0 {
		t.Errorf("fused run allocates %.1f per job in steady state", avg)
	}
	// Lockstep: a row of machines stepping the same 4-batch stream,
	// warm-up split included, allocates nothing once built — neither the
	// shared-L1 group of the two flushing machines nor the write cache
	// stepping the raw batch beside it.
	row := NewRow([]*Machine{
		MustNew(Baseline()),
		MustNew(Baseline().WithHazard(core.FlushPartial)),
		MustNew(Baseline().WithWriteCache(8)),
	})
	ctx := context.Background()
	if avg := testing.AllocsPerRun(10, func() {
		g.pos = 0
		if err := row.Run(ctx, g, 3000); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("row run allocates %.1f per run in steady state", avg)
	}
	if len(row.groups) != 1 || !row.groups[0].active || len(row.plain) != 1 {
		t.Errorf("row shape: %d shared-L1 groups, %d plain machines; want one active group and one plain machine",
			len(row.groups), len(row.plain))
	}
}

// replayGen serves a fixed reference slice; resetting pos replays it.
type replayGen struct {
	refs []trace.Ref
	pos  int
}

func (g *replayGen) Fill(buf []trace.Ref) int {
	n := copy(buf, g.refs[g.pos:])
	g.pos += n
	return n
}
