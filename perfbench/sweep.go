package main

import (
	"context"
	_ "embed"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/explore"
	"repro/internal/machconf"
	"repro/internal/metrics"
	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// paper_sweep sizes.  sweepN keeps one job near 5 ms on the reference box,
// so one pass over the whole grid (every config × every benchmark, one
// RunMatrixCtx call, as wbexp and explore make it) takes a few seconds and
// the measured phase completes several passes; each pass runs the configs
// in a fresh seeded order.  The hit class re-runs hitConfigs stored configs
// for hitSeconds of clean host time.
const (
	sweepN       = 100_000
	setupReps    = 21
	sweepWarm    = 1500 * time.Millisecond
	hitConfigs   = 4
	hitWarm      = 50
	hitSeconds   = 2 * time.Second
	legacyCells  = 6
	sampleSweeps = 2
	ladderReps   = 5
	maxPasses    = 64 // more than any measured phase the benchmark is run with completes
)

// paperSpaceJSON is the paper's Figure 4–9 grid (a copy of
// spaces/paper.json, so the benchmark's inputs cannot drift under it).
//
//go:embed paper_space.json
var paperSpaceJSON []byte

// goldenJSON holds every paper_sweep cell's digest; regenerate it with
// -write-golden only when a change is meant to alter simulated results.
//
//go:embed golden_paper_sweep.json
var goldenJSON []byte

// sweepSetup is everything paper_sweep computes before its first job.
type sweepSetup struct {
	benches []workload.Benchmark
	specs   []experiment.ConfigSpec
	keys    [][]string // [spec][bench] result-store key
	gold    *golden    // the benchmark's check data, loaded apart from the timed set-up
}

// setupSweep is the program's set-up: it enumerates the paper grid, adds
// the write-cache, ftl and banked variants of the baseline, and hashes
// every machine into its result-store keys.
func setupSweep() (*sweepSetup, error) {
	sp, err := explore.Load(paperSpaceJSON)
	if err != nil {
		return nil, err
	}
	cands, err := sp.Enumerate()
	if err != nil {
		return nil, err
	}
	st := &sweepSetup{benches: workload.All()}
	for _, c := range cands {
		st.specs = append(st.specs, experiment.ConfigSpec{Label: c.Label, Cfg: c.Cfg})
	}
	base := sim.Baseline()
	st.specs = append(st.specs,
		experiment.ConfigSpec{Label: "wcache=8", Cfg: base.WithWriteCache(8)},
		experiment.ConfigSpec{Label: "org=ftl", Cfg: base.WithOrg(core.FTLOrg{NumBuffers: 2, SectorBits: 1})},
		experiment.ConfigSpec{Label: "backend=banked", Cfg: base.WithBackend(backend.BankedSpec{Banks: 4, RowMiss: 18})},
	)
	st.keys = make([][]string, len(st.specs))
	for si, spec := range st.specs {
		h, err := machconf.Hash(spec.Cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Label, err)
		}
		for _, b := range st.benches {
			st.keys[si] = append(st.keys[si], resultstore.Key(b.Name, sweepN, h))
		}
	}
	return st, nil
}

// loadGolden parses the golden digests and checks they cover every cell.
func (st *sweepSetup) loadGolden() error {
	g, err := parseGolden(goldenJSON)
	if err != nil {
		return err
	}
	if g.N != sweepN {
		return fmt.Errorf("golden digests are for n=%d, the sweep runs n=%d", g.N, sweepN)
	}
	for si := range st.keys {
		for _, k := range st.keys[si] {
			if _, ok := g.Cells[k]; !ok {
				return fmt.Errorf("golden digests lack cell %s", k)
			}
		}
	}
	st.gold = g
	return nil
}

// sweepOrder is the seeded config order: one fresh permutation of the
// configs per pass, count entries long.
func sweepOrder(seed uint64, nspecs, count int) []int {
	r := rand.New(rand.NewPCG(seed, 0x70617065725f7377))
	out := make([]int, 0, count)
	for len(out) < count {
		out = append(out, r.Perm(nspecs)...)
	}
	return out[:count]
}

// progressAt is one Progress event with the time it arrived.
type progressAt struct {
	at time.Time
	ev experiment.ProgressEvent
}

// jobTimed is the event's job as a latency sample: it ended when its event
// arrived and lasted its JobTime.
func (p progressAt) jobTimed() timed { return timed{p.at.Add(-p.ev.JobTime), p.at} }

// sweepPass is one RunMatrixCtx call over every benchmark and the configs
// si, in that order.
type sweepPass struct {
	si         []int
	start, end time.Time
	events     []progressAt
	out        [][]experiment.Measurement
}

func (st *sweepSetup) run(ctx context.Context, si []int, be dispatch.Backend) (*sweepPass, error) {
	specs := make([]experiment.ConfigSpec, len(si))
	for i, k := range si {
		specs[i] = st.specs[k]
	}
	r := &sweepPass{si: si, events: make([]progressAt, 0, len(st.benches)*len(si))}
	opts := experiment.Options{
		Instructions: sweepN,
		Backend:      be,
		Progress: func(ev experiment.ProgressEvent) {
			r.events = append(r.events, progressAt{time.Now(), ev})
		},
	}
	r.start = time.Now()
	out, err := experiment.RunMatrixCtx(ctx, st.benches, specs, opts)
	r.end = time.Now()
	r.out = out
	return r, err
}

// verify checks every measurement of a pass against its golden digest.
func (st *sweepSetup) verify(o *outcome, r *sweepPass) {
	for bi := range st.benches {
		for ci, si := range r.si {
			if err := st.gold.check(st.keys[si][bi], r.out[bi][ci]); err != nil {
				o.failCheck("paper_sweep: %v", err)
			}
		}
	}
}

// sweepAcc accumulates a phase's passes.
type sweepAcc struct {
	jobs      int
	wall      time.Duration // summed makespans
	busy      time.Duration // summed job times
	jobMS     []float64
	tails     []float64 // last completion minus the one before it, ms
	admits    []float64 // call to first job start, ms
	firsts    []float64 // call to first Progress event, ms
	overheads []float64 // makespan minus summed job time over workers, ms
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (a *sweepAcc) add(r *sweepPass, workers int) {
	mk := r.end.Sub(r.start)
	a.wall += mk
	var busy time.Duration
	firstStart := r.end
	for _, p := range r.events {
		a.jobs++
		busy += p.ev.JobTime
		a.jobMS = append(a.jobMS, ms(p.ev.JobTime))
		if s := p.at.Add(-p.ev.JobTime); s.Before(firstStart) {
			firstStart = s
		}
	}
	a.busy += busy
	if n := len(r.events); n >= 2 {
		a.tails = append(a.tails, ms(r.events[n-1].at.Sub(r.events[n-2].at)))
		a.firsts = append(a.firsts, ms(r.events[0].at.Sub(r.start)))
		a.admits = append(a.admits, ms(firstStart.Sub(r.start)))
		a.overheads = append(a.overheads, ms(mk-busy/time.Duration(workers)))
	}
}

// tracedBackend runs a traced pass's jobs through tracedJob under the
// pass's span and sums the instructions their generators produced.
type tracedBackend struct {
	tr          *tracer
	parent, req uint64
	generated   atomic.Uint64
}

func (t *tracedBackend) Run(_ context.Context, job dispatch.Job) (dispatch.Measurement, error) {
	b, ok := workload.ByName(job.Bench)
	if !ok {
		return dispatch.Measurement{}, fmt.Errorf("%w: %q", dispatch.ErrUnknownBenchmark, job.Bench)
	}
	m, n, err := tracedJob(t.tr, t.parent, t.req, b, job.Label, job.Cfg, job.N, true)
	t.generated.Add(n)
	return m, err
}

func runPaperSweep(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	// Set-up is timed in two bursts, before the warm pass and after the
	// measured phase, for the reason the served workloads give (serve.go).
	reps, st, err := timeSetups(nil)
	if err != nil {
		return nil, err
	}
	if err := st.loadGolden(); err != nil {
		return nil, err
	}

	ctx := context.Background()
	workers := cfg.procs
	nspecs := len(st.specs)
	order := sweepOrder(cfg.seed, nspecs, maxPasses*nspecs)
	passes := 0
	pass := func(ctx context.Context, be dispatch.Backend) (*sweepPass, error) {
		k := passes % maxPasses
		passes++
		return st.run(ctx, order[k*nspecs:(k+1)*nspecs], be)
	}

	// The warm pass is cut short at sweepWarm; its partial matrix is
	// discarded unchecked.
	warm, cancel := context.WithTimeout(ctx, sweepWarm)
	_, err = pass(warm, nil)
	cancel()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		o.spans = tr
	}
	var all, traced, plain sweepAcc
	var jobs, instr perSecond
	var jobTimes []timed
	var generated []uint64 // per traced pass
	var counts stats.Counters
	ph := startPhase(cfg.seconds, nil)
	// A traced run alternates traced and untraced passes and needs one of
	// each.
	for i := 0; !ph.over() || (tr != nil && i < 2); i++ {
		var be *tracedBackend
		var sp open
		if tr != nil && i%2 == 0 {
			sp = tr.open("experiment.sweep", 0, uint64(i+1))
			be = &tracedBackend{tr: tr, parent: sp.id, req: uint64(i + 1)}
		}
		var r *sweepPass
		var err error
		if be != nil {
			r, err = pass(ctx, be)
		} else {
			r, err = pass(ctx, nil)
		}
		if err != nil {
			ph.stop()
			return nil, err
		}
		st.verify(o, r)
		o.attempted += len(r.events)
		all.add(r, workers)
		for _, p := range r.events {
			jobs.add(ph.second(p.at), 1)
			instr.add(ph.second(p.at), float64(p.ev.Instructions))
			jobTimes = append(jobTimes, p.jobTimed())
		}
		if i == 0 {
			for bi := range r.out {
				for _, m := range r.out[bi] {
					addCounters(&counts, m.C)
				}
			}
		}
		if be != nil {
			tr.close(sp)
			traced.add(r, workers)
			generated = append(generated, be.generated.Load())
		} else {
			plain.add(r, workers)
		}
	}
	ph.stop()
	// The peak is read here, before the hit class, whose hundred thousand
	// latency samples would otherwise set the peak with the benchmark's own
	// bookkeeping rather than the sweep's memory.
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	o.e2e["peak_rss_mb"] = metric{rss, "MiB"}
	if reps, _, err = timeSetups(reps); err != nil {
		return nil, err
	}
	setups := cleanReps(reps)
	o.e2e["setup_s"] = metric{median(setups), "s"}
	o.samples["setup_s"] = len(setups)
	var measuredSpans []span
	if tr != nil {
		measuredSpans = tr.snapshot()
	}

	keep := ph.kept()
	o.e2e["jobs_per_s"] = metric{ph.rate(keep, jobs), "1/s"}
	o.e2e["mips"] = metric{ph.rate(keep, instr) / 1e6, "MIPS"}
	if err := o.latency(ph.keptClass("simulated jobs", keep, jobTimes), "p50_ms", "p90_ms", "host.dropped_pct"); err != nil {
		return nil, err
	}
	o.hostLayers(ph, keep)

	hit, hitCounts, err := sweepHitClass(ctx, o, st, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := o.latency(hit, "hit_p50_ms", "hit_p90_ms", "host.hit_dropped_pct"); err != nil {
		return nil, err
	}
	legacyOracle(o, st, cfg.seed)

	if !cfg.trace {
		return o, nil
	}

	// Per-layer metrics.  The harness view comes from every measured
	// pass's Progress events; generation and simulation from the traced
	// passes' spans; the exact counts from whole passes: every pass covers
	// every cell once, so they are the same on every pass and every run.
	L := o.layer
	jp50, err := quantile(all.jobMS, 0.5)
	if err != nil {
		return nil, err
	}
	jp90, err := quantile(all.jobMS, 0.9)
	if err != nil {
		return nil, err
	}
	L["experiment.job_ms_p50"] = metric{jp50, "ms"}
	L["experiment.job_ms_p90"] = metric{jp90, "ms"}
	o.samples["experiment.job_ms_p50"], o.samples["experiment.job_ms_p90"] = len(all.jobMS), len(all.jobMS)
	L["experiment.pool_busy_frac"] = metric{float64(all.busy) / (float64(workers) * float64(all.wall)), "ratio"}
	L["experiment.tail_ms"] = metric{mean(all.tails), "ms"}
	L["wbserve.admit_ms"] = metric{median(all.admits), "ms"}
	L["wbserve.first_event_ms"] = metric{median(all.firsts), "ms"}
	L["wbserve.request_overhead_ms"] = metric{median(all.overheads), "ms"}

	agg := selfTimes(measuredSpans)
	sampleLayers(o, agg, uint64(traced.jobs)*sweepN)
	tracedRate := float64(traced.jobs) / traced.wall.Seconds()
	plainRate := float64(plain.jobs) / plain.wall.Seconds()
	L["trace.overhead_pct"] = metric{(plainRate/tracedRate - 1) * 100, "%"}
	L["trace.spans"] = metric{float64(len(measuredSpans)), "count"}
	for _, g := range generated[1:] {
		if g != generated[0] {
			o.failCheck("paper_sweep: traced passes generated %d and %d instructions", generated[0], g)
		}
	}
	reportCounts(o, generated[0], counts, st.cells())

	if _, _, err := checkSample(o, tr, st.sampleJobs(cfg.seed)); err != nil {
		return nil, err
	}
	for k, v := range hitCounts {
		L[k] = v
	}
	L["jobqueue.deduped"] = metric{0, "count"}
	L["wbserve.inflight_requests"] = metric{0, "count"}
	cfgs := make([]sim.Config, len(st.specs))
	for i, spec := range st.specs {
		cfgs[i] = spec.Cfg
	}
	if err := probeLayers(o, filepath.Join(cfg.work, fmt.Sprintf("probe-%d", os.Getpid())), cfgs); err != nil {
		return nil, err
	}
	return o, nil
}

// timeSetups times setupReps more set-ups, appending them to reps, and
// returns the last set-up.
func timeSetups(reps []rep) ([]rep, *sweepSetup, error) {
	var st *sweepSetup
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each repetition starts from the same collector state
		r, err := timeRep(func() (err error) {
			st, err = setupSweep()
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		reps = append(reps, r)
	}
	return reps, st, nil
}

// cells is the number of (benchmark, config) cells in one pass.
func (st *sweepSetup) cells() int { return len(st.benches) * len(st.specs) }

// sweepHitClass times the in-process re-run of stored configs — `wbexp
// -store` asking again for sweeps it already has — through dispatch.Cached
// over a memory-tier result store, one RunMatrixCtx call over the
// hitConfigs configs at a time.  Its latency class is the per-job time of
// those calls.  The simulating phase above never touches the store; this
// class is timed apart from it.
func sweepHitClass(ctx context.Context, o *outcome, st *sweepSetup, seed uint64) (*latencyStats, map[string]metric, error) {
	reg := metrics.NewRegistry()
	store, err := resultstore.Open("", resultstore.Options{MemoryEntries: 256, Metrics: reg})
	if err != nil {
		return nil, nil, err
	}
	cached := dispatch.NewCached(&dispatch.Local{}, store, reg)
	specs := sweepOrder(seed^0x68697473, len(st.specs), hitConfigs)
	hitRun := func() (*sweepPass, error) {
		r, err := st.run(ctx, specs, cached)
		if err == nil {
			st.verify(o, r)
		}
		return r, err
	}
	for i := 0; i < 1+hitWarm; i++ {
		if _, err := hitRun(); err != nil {
			return nil, nil, err
		}
	}
	var times []timed
	ph := startPhase(hitSeconds, nil)
	for !ph.over() {
		r, err := hitRun()
		if err != nil {
			ph.stop()
			return nil, nil, err
		}
		for _, p := range r.events {
			times = append(times, p.jobTimed())
		}
	}
	ph.stop()
	hit := ph.keptClass("stored jobs", ph.kept(), times)
	snap := reg.Snapshot()
	misses := snap["dispatch_store_misses_total"]
	hits := snap[metrics.Label("resultstore_hits_total", "tier", "memory")] + snap[metrics.Label("resultstore_hits_total", "tier", "disk")]
	lookups := hits + snap["resultstore_misses_total"]
	newKeys := float64(hitConfigs * len(st.benches))
	return hit, map[string]metric{
		"dispatch.store_misses":   {misses, "count"},
		"dispatch.dup_executions": {misses - newKeys, "count"},
		"dispatch.dup_base":       {newKeys, "count"},
		"resultstore.hits":        {hits, "count"},
		"resultstore.lookups":     {lookups, "count"},
		"resultstore.hit_ratio":   {hits / lookups, "ratio"},
	}, nil
}

// sampleJobs is the fixed seeded sample behind the exact counts: every
// benchmark of the first sampleSweeps configs of a seeded order, each
// checked against its golden digest.
func (st *sweepSetup) sampleJobs(seed uint64) []sampleJob {
	var out []sampleJob
	for _, si := range sweepOrder(seed^0x73616d70, len(st.specs), sampleSweeps) {
		for bi, b := range st.benches {
			key := st.keys[si][bi]
			out = append(out, sampleJob{
				job:   dispatch.Job{Bench: b.Name, Label: st.specs[si].Label, Cfg: st.specs[si].Cfg, N: sweepN},
				check: func(m dispatch.Measurement) error { return st.gold.check(key, m) },
			})
		}
	}
	return out
}

// legacyOracle replays a seeded sample of cells through the per-reference
// Machine.Step path (trace.Stream.Next → Step, as wbbench -mode legacy
// does) and requires the golden counters.
func legacyOracle(o *outcome, st *sweepSetup, seed uint64) {
	r := rand.New(rand.NewPCG(seed, 0x6c6567616379))
	for i := 0; i < legacyCells; i++ {
		si, bi := r.IntN(len(st.specs)), r.IntN(len(st.benches))
		spec, b := st.specs[si], st.benches[bi]
		m, err := sim.New(spec.Cfg)
		if err != nil {
			o.failCheck("legacy oracle: %v", err)
			continue
		}
		s := b.Stream(sweepN)
		for j := uint64(0); j < sweepN/4; j++ {
			ref, ok := s.Next()
			if !ok {
				break
			}
			m.Step(ref)
		}
		m.ResetStats()
		for ref, ok := s.Next(); ok; ref, ok = s.Next() {
			m.Step(ref)
		}
		if err := st.gold.check(st.keys[si][bi], measurementOf(m, b.Name, spec.Label, spec.Cfg)); err != nil {
			o.failCheck("legacy oracle: %v", err)
		}
	}
}

// sampleJob is one job of a fixed seeded sample, with the check its
// output must pass.
type sampleJob struct {
	job   dispatch.Job
	check func(dispatch.Measurement) error
}

// checkSample runs every sample job through in-process dispatch.Execute and
// checks its output.  Traced, it runs each job ladderReps more times each
// way — untraced through dispatch.Execute, traced through tracedJob with
// instruction counting, alternating which goes first — checks every output,
// returns the sample's generated instructions and summed counters (one
// repetition's worth), and reports the ladder ratio: the summed
// per-job fastest repetitions of traced generation plus simulation self
// time over those of the untraced fused job time.  The fastest repetition
// is the job's cost with the least interference from the rest of the host.
func checkSample(o *outcome, tr *tracer, jobs []sampleJob) (generated uint64, sum stats.Counters, err error) {
	run := func(sj sampleJob) (time.Duration, error) {
		t0 := time.Now()
		m, err := dispatch.Execute(sj.job, nil)
		took := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if err := sj.check(m); err != nil {
			o.failCheck("in-process sample: %v", err)
		}
		return took, nil
	}
	if tr == nil {
		for _, sj := range jobs {
			if _, err := run(sj); err != nil {
				return 0, sum, err
			}
		}
		return 0, sum, nil
	}
	from := len(tr.snapshot())
	plain := make([][]float64, len(jobs))
	for i, sj := range jobs {
		b, ok := workload.ByName(sj.job.Bench)
		if !ok {
			return 0, sum, fmt.Errorf("%w: %q", dispatch.ErrUnknownBenchmark, sj.job.Bench)
		}
		for r := 0; r < ladderReps; r++ {
			traced := func() error {
				req := ladderReq(i, r)
				m, n, err := tracedJob(tr, 0, req, b, sj.job.Label, sj.job.Cfg, sj.job.N, true)
				if err != nil {
					return err
				}
				if err := sj.check(m); err != nil {
					o.failCheck("traced sample: %v", err)
				}
				if r == 0 {
					generated += n
					addCounters(&sum, m.C)
				}
				return nil
			}
			untraced := func() error {
				took, err := run(sj)
				plain[i] = append(plain[i], float64(took))
				return err
			}
			first, second := untraced, traced
			if (i+r)%2 == 1 {
				first, second = traced, untraced
			}
			if err := first(); err != nil {
				return 0, sum, err
			}
			if err := second(); err != nil {
				return 0, sum, err
			}
		}
	}
	// Per traced job: its sim.job span minus the instruction counting,
	// which is the self time of sim.job plus that of its workload.* spans.
	perReq := map[uint64]float64{}
	for _, sp := range tr.snapshot()[from:] {
		switch sp.name {
		case "sim.job":
			perReq[sp.req] += float64(sp.end - sp.start)
		case "trace.count":
			perReq[sp.req] -= float64(sp.end - sp.start)
		}
	}
	var tracedSum, plainSum float64
	for i := range jobs {
		var xs []float64
		for r := 0; r < ladderReps; r++ {
			xs = append(xs, perReq[ladderReq(i, r)])
		}
		tracedSum += minOf(xs)
		plainSum += minOf(plain[i])
	}
	ratio := tracedSum / plainSum
	if ratio < 0.9 || ratio > 1.1 {
		o.failCheck("ladder: generation plus simulation self time is %.3f of the untraced fused job time, outside [0.9, 1.1]", ratio)
	}
	o.layer["trace.ladder_ratio"] = metric{ratio, "ratio"}
	return generated, sum, nil
}

// ladderReq is the request id of sample job i's r-th traced repetition.
func ladderReq(i, r int) uint64 { return 1<<32 + uint64(i*ladderReps+r) }

func addCounters(sum *stats.Counters, c stats.Counters) {
	sum.Instructions += c.Instructions
	sum.Cycles += c.Cycles
	for k := range c.Stalls {
		sum.Stalls[k] += c.Stalls[k]
	}
}

// reportCounts records the exact, host-speed-independent counts of a set of
// cells.
func reportCounts(o *outcome, generated uint64, sum stats.Counters, cells int) {
	L := o.layer
	L["workload.instr_generated"] = metric{float64(generated), "count"}
	L["sim.instr_simulated"] = metric{float64(sum.Instructions), "count"}
	L["sim.cycles"] = metric{float64(sum.Cycles), "count"}
	L["sim.stall_buffer_full"] = metric{float64(sum.Stalls[stats.BufferFull]), "count"}
	L["sim.stall_l2_read"] = metric{float64(sum.Stalls[stats.L2ReadAccess]), "count"}
	L["sim.stall_load_hazard"] = metric{float64(sum.Stalls[stats.LoadHazard]), "count"}
	L["sim.sample_cells"] = metric{float64(cells), "count"}
}

// regenerateGolden recomputes every cell in-process and writes the digest
// file.
func regenerateGolden(path string) error {
	st, err := setupSweep()
	if err != nil {
		return err
	}
	g := &golden{N: sweepN, Cells: map[string]string{}}
	out, err := experiment.RunMatrixCtx(context.Background(), st.benches, st.specs, experiment.Options{Instructions: sweepN})
	if err != nil {
		return err
	}
	for bi := range st.benches {
		for si := range st.specs {
			g.Cells[st.keys[si][bi]] = digestOf(out[bi][si])
		}
	}
	fmt.Fprintf(os.Stderr, "%d cells, combined digest %s\n", len(g.Cells), g.combined())
	return g.writeFile(path)
}
