package experiment

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Extension experiments: systems the paper discusses but does not
// evaluate — Jouppi's write cache, memory barriers, occupancy analysis,
// and an analytic model cross-check.
func init() {
	registerExperiment(Experiment{
		ID:    "ext-writecache",
		Title: "Write buffer vs Jouppi-style write cache: stalls and write traffic",
		Run:   runWriteCache,
	})
	registerInProcess(Experiment{
		ID:    "ext-membar",
		Title: "Memory-barrier cost vs write-stage organisation (drain stalls at varying barrier frequency)",
		Run:   runMembar,
	})
	registerInProcess(Experiment{
		ID:    "ext-occupancy",
		Title: "Store-observed occupancy distribution: the headroom picture behind Figures 4 and 5",
		Run:   runOccupancy,
	})
	registerInProcess(Experiment{
		ID:    "ext-analytic",
		Title: "Analytic Markov model vs simulator: blocking probability across depths",
		Run:   runAnalytic,
	})
	registerInProcess(Experiment{
		ID:    "ext-multiprog",
		Title: "Multiprogramming: write-buffer and cache behaviour under context-switch quanta",
		Run:   runMultiprog,
	})
	registerInProcess(Experiment{
		ID:    "ext-variance",
		Title: "Seed robustness: baseline stall percentages as mean ± sd over 5 generator seeds",
		Run:   runVariance,
	})
}

// registerInProcess registers an experiment that ignores o.Backend: it
// runs derived benchmarks (workload.Derive), which no backend can resolve
// by name, or reads machine state a Measurement does not carry.
func registerInProcess(e Experiment) {
	run := e.Run
	e.Run = func(ctx context.Context, o Options) (*Report, error) {
		o.Backend = nil
		return run(ctx, o)
	}
	registerExperiment(e)
}

// runVariance reruns each profile-driven benchmark with shifted generator
// seeds — the stand-in for different program inputs — and reports the
// spread of the baseline stall measurement.  Tight spreads mean the
// figures measure the workload's character, not one lucky stream.
func runVariance(ctx context.Context, o Options) (*Report, error) {
	rep := &Report{
		ID: "ext-variance", Title: "Baseline total stall %, mean ± sd over 5 seeds",
		Columns: []string{"benchmark", "mean", "sd", "min", "max"},
		Notes: []string{
			"kernel benchmarks (tomcatv, fft, cholsky, gmtry) are deterministic loop nests and are skipped",
		},
	}
	const seeds = 5
	var seeded []workload.Benchmark // seeds variants per benchmark, b.Name~s0 first
	for _, b := range o.benchmarks() {
		for s := uint64(0); s < seeds; s++ {
			if rb, ok := workload.Reseeded(b, s); ok {
				seeded = append(seeded, rb)
			}
		}
	}
	matrix, err := RunMatrixCtx(ctx, seeded, baseline, o)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(seeded); i += seeds {
		vals := make([]float64, seeds)
		for s := range vals {
			vals[s] = matrix[i+s][0].C.TotalStallPct()
		}
		mean, sd, lo, hi := meanSD(vals)
		rep.Rows = append(rep.Rows, []string{
			strings.TrimSuffix(seeded[i].Name, "~s0"),
			fmt.Sprintf("%.2f", mean), fmt.Sprintf("%.2f", sd),
			fmt.Sprintf("%.2f", lo), fmt.Sprintf("%.2f", hi),
		})
	}
	return rep, nil
}

func meanSD(vals []float64) (mean, sd, lo, hi float64) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals {
		mean += v
		lo, hi = min(lo, v), max(hi, v)
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		sd += (v - mean) * (v - mean)
	}
	sd = math.Sqrt(sd / float64(len(vals)))
	return
}

// runMultiprog time-slices pairs of benchmarks (trace.Interleave) and
// reports how shrinking quanta degrade locality: every switch faces the
// incoming program with the other's cache contents, raising both miss
// traffic and L2 contention — the OS activity the paper's traces omit.
func runMultiprog(ctx context.Context, o Options) (*Report, error) {
	pairs := [][2]string{{"li", "compress"}, {"sc", "hydro2d"}, {"espresso", "fft"}}
	quanta := []uint64{0, 100_000, 10_000, 1_000}
	rep := &Report{
		ID: "ext-multiprog", Title: "Context-switch quantum sweep (baseline machine)",
		Columns: []string{"pair / quantum", "stall%", "L1 hit%", "WB hit%"},
		Notes: []string{
			"quantum 'none' runs the pair back to back; smaller quanta switch more often",
		},
	}
	var mixes []workload.Benchmark
	for _, pair := range pairs {
		a, b := mustBench(pair[0]), mustBench(pair[1])
		for _, q := range quanta {
			name := fmt.Sprintf("%s+%s / %d", a.Name, b.Name, q)
			if q == 0 {
				name = fmt.Sprintf("%s+%s / none", a.Name, b.Name)
			}
			mixes = append(mixes, workload.Derive(name, func(n uint64) trace.Generator {
				if q == 0 {
					return trace.NewConcat(a.Generator(n/2), b.Generator(n/2))
				}
				return trace.NewInterleave(q, a.Generator(n/2), b.Generator(n/2))
			}))
		}
	}
	matrix, err := RunMatrixCtx(ctx, mixes, baseline, o)
	if err != nil {
		return nil, err
	}
	for i, mix := range mixes {
		m := matrix[i][0]
		rep.Rows = append(rep.Rows, []string{
			mix.Name, fmt.Sprintf("%.2f", m.C.TotalStallPct()), pct(m.L1Hit), pct(m.WBHit),
		})
	}
	return rep, nil
}

// mustBench resolves a benchmark the experiment hard-codes.
func mustBench(name string) workload.Benchmark {
	b, ok := workload.ByName(name)
	if !ok {
		panic("experiment: missing benchmark " + name)
	}
	return b
}

func runWriteCache(ctx context.Context, o Options) (*Report, error) {
	specs := []ConfigSpec{
		{Label: "buf-4 FF", Cfg: sim.Baseline()},
		{Label: "buf-8 RWB", Cfg: sim.Baseline().WithDepth(8).WithRetire(core.RetireAt{N: 4}).WithHazard(core.ReadFromWB)},
		{Label: "wcache-4", Cfg: sim.Baseline().WithWriteCache(4)},
		{Label: "wcache-8", Cfg: sim.Baseline().WithWriteCache(8)},
	}
	benches := o.benchmarks()
	rep := &Report{
		ID: "ext-writecache", Title: "Write buffer vs write cache",
		Notes: []string{
			"cells: total stall % | L2 block-writes per 100 stores (the traffic-aggregation metric Jouppi optimised)",
		},
	}
	matrix, err := RunMatrixCtx(ctx, benches, specs, o)
	if err != nil {
		return nil, err
	}
	rep.addSpecTable("benchmark", benches, specs, func(bi, ci int) string {
		c := matrix[bi][ci].C
		per100 := float64(0)
		if c.Stores > 0 {
			per100 = 100 * float64(c.Retirements+c.FlushedEntries) / float64(c.Stores)
		}
		return fmt.Sprintf("%5.2f | %5.1f", c.TotalStallPct(), per100)
	})
	return rep, nil
}

func runMembar(ctx context.Context, o Options) (*Report, error) {
	periods := []uint64{1000, 200, 50} // instructions between barriers
	configs := []ConfigSpec{
		{Label: "buf-4", Cfg: sim.Baseline()},
		{Label: "buf-12 RWB", Cfg: sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB)},
		{Label: "wcache-8", Cfg: sim.Baseline().WithWriteCache(8)},
	}
	rep := &Report{
		ID: "ext-membar", Title: "Membar drain cost",
		Notes: []string{
			"cells: total stall % (membar-drain component) — deeper/lazier write stages pay more per barrier",
		},
	}
	// One derived benchmark per (benchmark, period), the barrier-free
	// stream first; the three configurations share each one's stream.
	var fenced []workload.Benchmark
	for _, b := range o.benchmarks() {
		fenced = append(fenced, workload.Derive(b.Name+" / none", b.Generator))
		for _, period := range periods {
			fenced = append(fenced, workload.Derive(fmt.Sprintf("%s / %d", b.Name, period),
				func(n uint64) trace.Generator {
					return trace.NewInject(b.Generator(n), trace.Ref{Kind: trace.Membar}, period)
				}))
		}
	}
	matrix, err := RunMatrixCtx(ctx, fenced, configs, o)
	if err != nil {
		return nil, err
	}
	rep.addSpecTable("benchmark / period", fenced, configs, func(bi, ci int) string {
		c := matrix[bi][ci].C
		return fmt.Sprintf("%5.2f (mb %4.2f)", c.TotalStallPct(), c.StallPct(stats.MembarDrain))
	})
	return rep, nil
}

// runOccupancy and runAnalytic read the store-observed occupancy
// histogram, which a Measurement does not carry, from each finished
// machine through the matrix's visit hook.
func runOccupancy(ctx context.Context, o Options) (*Report, error) {
	specs := []ConfigSpec{
		{Label: "4d/r2", Cfg: sim.Baseline()},
		{Label: "12d/r2", Cfg: sim.Baseline().WithDepth(12)},
		{Label: "12d/r8", Cfg: sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8})},
		{Label: "12d/r10", Cfg: sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 10})},
	}
	benches := o.benchmarks()
	rep := &Report{
		ID: "ext-occupancy", Title: "Store-observed write-buffer occupancy",
		Notes: []string{
			"cells: mean occupancy | % of stores finding <2 entries free — lazy policies erase headroom",
		},
	}
	cells := make([][]string, len(benches))
	for bi := range cells {
		cells[bi] = make([]string, len(specs))
	}
	_, err := runMatrix(ctx, benches, specs, o, func(bi, ci int, m *sim.Machine) {
		h := m.OccupancyHistogram()
		var total, tight uint64
		for k, v := range h {
			total += v
			if k >= len(h)-2 {
				tight += v
			}
		}
		pctTight := float64(0)
		if total > 0 {
			pctTight = 100 * float64(tight) / float64(total)
		}
		cells[bi][ci] = fmt.Sprintf("%4.1f | %5.2f", m.MeanOccupancy(), pctTight)
	})
	if err != nil {
		return nil, err
	}
	rep.addSpecTable("benchmark", benches, specs, func(bi, ci int) string { return cells[bi][ci] })
	return rep, nil
}

func runAnalytic(ctx context.Context, o Options) (*Report, error) {
	rep := &Report{
		ID: "ext-analytic", Title: "Markov model vs simulator (Bernoulli allocating stores, q=0.10)",
		Columns: []string{"config", "model P(block)", "sim P(block)", "model occ", "sim occ"},
		Notes: []string{
			"validation on the model's own workload assumptions; see internal/analytic for the chain",
		},
	}
	const q = 0.10
	cases := []struct{ depth, hwm int }{{2, 2}, {4, 2}, {6, 2}, {8, 2}, {12, 10}}
	specs := make([]ConfigSpec, len(cases))
	rep.Rows = make([][]string, len(cases))
	for i, tc := range cases {
		pred, err := analytic.Solve(analytic.Params{
			AllocRate: q, ServiceLat: 6, Depth: tc.depth, HighWater: tc.hwm,
		})
		if err != nil {
			return nil, err
		}
		specs[i] = ConfigSpec{
			Label: fmt.Sprintf("%dd/retire-at-%d", tc.depth, tc.hwm),
			Cfg:   sim.Baseline().WithDepth(tc.depth).WithRetire(core.RetireAt{N: tc.hwm}),
		}
		rep.Rows[i] = []string{specs[i].Label,
			fmt.Sprintf("%.4f", pred.PBlocked), "",
			fmt.Sprintf("%.2f", pred.MeanOccupancy), ""}
	}
	bernoulli := workload.Derive("bernoulli-q0.10", func(n uint64) trace.Generator { return bernoulliStores(q, n) })
	_, err := runMatrix(ctx, []workload.Benchmark{bernoulli}, specs, o, func(_, ci int, m *sim.Machine) {
		c := m.Counters()
		simBlock := float64(0)
		if c.Stores > 0 {
			simBlock = float64(c.BlockedStores) / float64(c.Stores)
		}
		rep.Rows[ci][2] = fmt.Sprintf("%.4f", simBlock)
		rep.Rows[ci][4] = fmt.Sprintf("%.2f", m.MeanOccupancy())
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// bernoulliStores mirrors the analytic model's arrival assumptions: each
// instruction is an allocating store (fresh line, never merges) with
// probability q.
func bernoulliStores(q float64, n uint64) trace.Generator {
	refs := make([]trace.Ref, n)
	r := rng.New(7)
	line := mem.Addr(0)
	for i := range refs {
		if r.Bool(q) {
			line += mem.LineBytes
			refs[i] = trace.Ref{Kind: trace.Store, Addr: line}
		} else {
			refs[i] = trace.Ref{Kind: trace.Exec}
		}
	}
	return trace.NewSliceStream(refs)
}
