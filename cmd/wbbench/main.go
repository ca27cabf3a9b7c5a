// wbbench measures raw simulator throughput over the full 17-benchmark
// suite and writes the result as JSON — the repository's `make bench-sim`
// target and the source of the committed BENCH_sim.json.
//
// Two execution paths are measured:
//
//   - fused: one job at a time through the production entry point
//     (dispatch.ExecuteBench → batched trace.Generator →
//     Machine.StepBatch), the path every wbserve worker and remote job
//     runs.
//   - row: the in-process sweep path (dispatch.ExecuteRow): per
//     benchmark, one lockstep row of the first experiment.RowWidth()
//     machines of the paper grid (spaces/paper.json, read from the
//     working directory) stepping one generated stream.  It is measured
//     for the default fifo/flat shape only, since its machines are the
//     grid's, not the -org/-backend machine.
//
// The absolute fused number is the repository's throughput trajectory,
// tracked across PRs next to BENCH_explore.json (whose jobs/sec is bounded
// by it).  See docs/PERFORMANCE.md for how to read and regenerate the
// numbers.
//
// Usage:
//
//	wbbench [-n 1000000] [-org fifo|ftl] [-backend flat|banked] [-out BENCH_sim.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/explore"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchResult is one benchmark's throughput on one path.
type BenchResult struct {
	Bench string  `json:"bench"`
	MIPS  float64 `json:"mips"`
}

// PathResult aggregates one execution path over the suite.
type PathResult struct {
	AggregateMIPS float64       `json:"aggregate_mips"`
	WallSeconds   float64       `json:"wall_seconds"`
	Benches       []BenchResult `json:"benches"`
}

// Result is the BENCH_sim.json schema.  SeedAggregateMIPS is the aggregate
// throughput of the pre-PR-6 seed implementation, measured once on the
// reference machine and carried forward so every later PR can see the
// trajectory from the original per-reference loop.
type Result struct {
	SchemaVersion int    `json:"schema_version"`
	Instructions  uint64 `json:"instructions_per_bench"`
	BenchCount    int    `json:"bench_count"`
	// Org names the buffer organization the machine ran with; empty means
	// fifo (the committed BENCH_sim.json shape, unchanged from before the
	// organization axis existed).
	Org string `json:"org,omitempty"`
	// Backend names the memory backend the machine drained into; empty
	// means flat (the committed BENCH_sim.json shape, unchanged from
	// before the backend axis existed).
	Backend           string      `json:"backend,omitempty"`
	SeedAggregateMIPS float64     `json:"seed_aggregate_mips"`
	Fused             *PathResult `json:"fused,omitempty"`
	// Row is the lockstep path's aggregate: every machine of a row counts
	// its n instructions, over the row's wall time.
	Row           *PathResult `json:"row,omitempty"`
	SpeedupVsSeed float64     `json:"speedup_vs_seed,omitempty"`
}

// defaultSeedMIPS is the measured aggregate throughput of the seed
// implementation (per-reference Stream.Next + Step, pre-ring-buffer core,
// pre-flattened policy dispatch) over this same suite at n=2e6 on the
// reference machine — the best of three interleaved seed-vs-new runs,
// recorded by PR 6 before the rewrite landed (docs/PERFORMANCE.md
// describes the protocol).
var defaultSeedMIPS = flag.Float64("seed-mips", 28.33,
	"recorded pre-PR-6 seed aggregate MIPS (reference machine); used for speedup_vs_seed")

func main() {
	n := flag.Uint64("n", 1_000_000, "dynamic instructions per benchmark (first quarter is warm-up)")
	org := flag.String("org", "fifo",
		"buffer organization to measure: fifo, or ftl (reference shape numbuffers=2, sectorbits=1)")
	backendFlag := flag.String("backend", "flat",
		"memory backend to measure: flat, or banked (reference shape banks=4, rowmiss=18)")
	out := flag.String("out", "", "write JSON result to this file (default stdout only)")
	quiet := flag.Bool("quiet", false, "suppress the per-benchmark progress lines")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measurement to this file")
	repeat := flag.Int("repeat", 1,
		"measure each path this many times and report the best run (scheduler noise is one-sided)")
	baseline := flag.String("baseline", "", "committed BENCH_sim.json to gate against (CI bench smoke)")
	maxRegress := flag.Float64("max-regress", 0.20,
		"with -baseline: fail if the fused or row aggregate MIPS drops more than this fraction below it")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wbbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "wbbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	// The measured machine: the paper baseline, optionally re-organized.
	// The ftl reference shape (2 buffers, 1 sector bit) exercises striping,
	// masked coalescing, and the fullest-buffer victim walk on both paths,
	// so a throughput cliff in the organization layer shows up here even
	// though the committed BENCH_sim.json gates the fifo.
	cfg := sim.Baseline()
	switch *org {
	case "fifo":
	case "ftl":
		cfg = cfg.WithOrg(core.FTLOrg{NumBuffers: 2, SectorBits: 1})
	default:
		fmt.Fprintf(os.Stderr, "wbbench: unknown -org %q (want fifo or ftl)\n", *org)
		os.Exit(1)
	}
	// The banked reference shape exercises the bank-selection, busy-until,
	// and row-buffer paths on every retirement, so a throughput cliff in
	// the backend layer shows up here even though the committed
	// BENCH_sim.json gates the flat backend.
	switch *backendFlag {
	case "flat":
	case "banked":
		cfg = cfg.WithBackend(backend.BankedSpec{Banks: 4, RowMiss: 18})
	default:
		fmt.Fprintf(os.Stderr, "wbbench: unknown -backend %q (want flat or banked)\n", *backendFlag)
		os.Exit(1)
	}

	benches := workload.All()
	res := Result{
		SchemaVersion:     1,
		Instructions:      *n,
		BenchCount:        len(benches),
		SeedAggregateMIPS: *defaultSeedMIPS,
	}
	if *org != "fifo" {
		res.Org = *org
	}
	if *backendFlag != "flat" {
		res.Backend = *backendFlag
	}

	res.Fused = measureBest(benches, "fused", *quiet, *repeat, func(b workload.Benchmark) uint64 {
		if _, err := dispatch.ExecuteBench(b, "bench", cfg, *n, nil); err != nil {
			fail(fmt.Errorf("%s: %w", b.Name, err))
		}
		return *n
	})
	if res.Org == "" && res.Backend == "" {
		labels, cfgs, err := paperRow()
		if err != nil {
			fail(err)
		}
		res.Row = measureBest(benches, "row", *quiet, *repeat, func(b workload.Benchmark) uint64 {
			if _, _, err := dispatch.ExecuteRow(context.Background(), b, labels, cfgs, *n, nil); err != nil {
				fail(fmt.Errorf("%s: %w", b.Name, err))
			}
			return uint64(len(cfgs)) * *n
		})
	}
	if res.SeedAggregateMIPS > 0 {
		res.SpeedupVsSeed = res.Fused.AggregateMIPS / res.SeedAggregateMIPS
	}

	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbbench:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "wbbench:", err)
			os.Exit(1)
		}
	}
	os.Stdout.Write(blob)

	if *baseline != "" {
		if err := gate(*baseline, res, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "wbbench:", err)
			os.Exit(2)
		}
	}
}

// gate is the CI bench-smoke check: the committed BENCH_sim.json must
// parse, and the fresh fused aggregate must be within maxRegress of it.
// The committed number was measured on the reference machine with a much
// longer run, so the gate catches structural regressions (an accidental
// de-batching, a reintroduced per-step allocation), not single-digit
// percent drift.
func gate(path string, fresh Result, maxRegress float64) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Result
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("baseline %s does not parse: %w", path, err)
	}
	if base.SchemaVersion != fresh.SchemaVersion {
		return fmt.Errorf("baseline schema v%d, tool writes v%d — regenerate %s",
			base.SchemaVersion, fresh.SchemaVersion, path)
	}
	if base.Org != fresh.Org {
		return fmt.Errorf("baseline %s measured org %q, this run measured %q — gate like against like",
			path, orgName(base.Org), orgName(fresh.Org))
	}
	if base.Backend != fresh.Backend {
		return fmt.Errorf("baseline %s measured backend %q, this run measured %q — gate like against like",
			path, backendName(base.Backend), backendName(fresh.Backend))
	}
	if base.Fused == nil || base.Fused.AggregateMIPS <= 0 {
		return fmt.Errorf("baseline %s has no fused aggregate", path)
	}
	if err := gatePath("fused", base.Fused, fresh.Fused, maxRegress); err != nil {
		return err
	}
	if base.Row == nil {
		return nil // a baseline from before the row path was measured
	}
	if fresh.Row == nil {
		return fmt.Errorf("baseline %s has a row aggregate, this run measured none", path)
	}
	return gatePath("row", base.Row, fresh.Row, maxRegress)
}

// gatePath fails when fresh's aggregate is more than maxRegress below
// base's.
func gatePath(name string, base, fresh *PathResult, maxRegress float64) error {
	floor := base.AggregateMIPS * (1 - maxRegress)
	if fresh.AggregateMIPS < floor {
		return fmt.Errorf("%s aggregate %.2f MIPS below gate %.2f (baseline %.2f, max regress %.0f%%)",
			name, fresh.AggregateMIPS, floor, base.AggregateMIPS, maxRegress*100)
	}
	fmt.Fprintf(os.Stderr, "wbbench: %s gate ok: %.2f MIPS vs baseline %.2f (floor %.2f)\n",
		name, fresh.AggregateMIPS, base.AggregateMIPS, floor)
	return nil
}

// paperRow returns the row the row path measures: the first
// experiment.RowWidth() machines of the paper grid, the width the
// in-process sweep steps in lockstep.
func paperRow() ([]string, []sim.Config, error) {
	sp, err := explore.LoadFile("spaces/paper.json")
	if err != nil {
		return nil, nil, fmt.Errorf("row path (run from the repository root): %w", err)
	}
	cands, err := sp.Enumerate()
	if err != nil {
		return nil, nil, err
	}
	cands = cands[:min(len(cands), experiment.RowWidth())]
	labels := make([]string, len(cands))
	cfgs := make([]sim.Config, len(cands))
	for i, c := range cands {
		labels[i], cfgs[i] = c.Label, c.Cfg
	}
	return labels, cfgs, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wbbench:", err)
	os.Exit(1)
}

// orgName renders a Result.Org for error messages (empty means fifo).
func orgName(org string) string {
	if org == "" {
		return "fifo"
	}
	return org
}

// backendName renders a Result.Backend for error messages (empty means
// flat).
func backendName(be string) string {
	if be == "" {
		return "flat"
	}
	return be
}

// measureBest is measure repeated, keeping the run with the best
// aggregate.  Interference from a shared host only ever slows a run down,
// so the best of a few repetitions is the least-biased estimate of the
// code's actual speed; one repetition is fine on a quiet machine.
func measureBest(benches []workload.Benchmark, path string, quiet bool, repeat int, run func(workload.Benchmark) uint64) *PathResult {
	best := measure(benches, path, quiet, run)
	for i := 1; i < repeat; i++ {
		if pr := measure(benches, path, quiet, run); pr.AggregateMIPS > best.AggregateMIPS {
			best = pr
		}
	}
	return best
}

// measure runs every benchmark through one path — run returns the
// instructions it simulated — and returns per-bench and aggregate MIPS.
// Aggregate is total simulated instructions over total wall time, so slow
// benchmarks weigh in proportionally — the number a sweep's wall clock
// actually tracks.
func measure(benches []workload.Benchmark, path string, quiet bool, run func(workload.Benchmark) uint64) *PathResult {
	pr := &PathResult{Benches: make([]BenchResult, 0, len(benches))}
	var totalInstr uint64
	var totalWall time.Duration
	for _, b := range benches {
		start := time.Now()
		instr := run(b)
		wall := time.Since(start)
		mips := float64(instr) / wall.Seconds() / 1e6
		pr.Benches = append(pr.Benches, BenchResult{Bench: b.Name, MIPS: round2(mips)})
		totalInstr += instr
		totalWall += wall
		if !quiet {
			fmt.Fprintf(os.Stderr, "%-12s %-6s %8.2f MIPS\n", b.Name, path, mips)
		}
	}
	pr.WallSeconds = totalWall.Seconds()
	pr.AggregateMIPS = round2(float64(totalInstr) / totalWall.Seconds() / 1e6)
	return pr
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
