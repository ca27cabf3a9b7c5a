package sim

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchRefs materialises a deterministic mixed reference stream (25%
// loads, 15% stores over a 64 KB footprint, the rest plain execution) so
// the benchmark measures Step, not stream generation.
func benchRefs(n int) []trace.Ref {
	r := rng.New(42)
	refs := make([]trace.Ref, n)
	for i := range refs {
		addr := mem.Addr(r.Uint64() % (64 << 10))
		switch {
		case r.Bool(0.25):
			refs[i] = trace.Ref{Kind: trace.Load, Addr: addr}
		case r.Bool(0.20): // 0.20 of the remaining 75% ≈ 15% overall
			refs[i] = trace.Ref{Kind: trace.Store, Addr: addr}
		default:
			refs[i] = trace.Ref{Kind: trace.Exec}
		}
	}
	return refs
}

// BenchmarkStep guards the per-instruction hot path.  The metrics layer
// must not slow it down: the only instrument the machine updates during
// execution is the retirement-latency histogram, touched once per
// retirement (a path that already performs an L2 write), never per
// instruction.
func BenchmarkStep(b *testing.B) {
	refs := benchRefs(1 << 16)
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"baseline", Baseline()},
		{"deep-lazy", Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB)},
		{"finiteL2", Baseline().WithL2(512 << 10)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := MustNew(bc.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step(refs[i&(len(refs)-1)])
			}
		})
	}
}

// BenchmarkPublishMetrics sizes the once-per-run cost of exporting a
// machine's counters into a shared registry.
func BenchmarkPublishMetrics(b *testing.B) {
	m := MustNew(Baseline())
	for _, r := range benchRefs(1 << 12) {
		m.Step(r)
	}
	reg := metrics.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PublishMetrics(reg)
	}
}

// BenchmarkRow measures lockstep rows of K machines over the fusedBenches
// streams and reports the row's own timers: generation per generated
// instruction, stepping per instruction per machine, generation's share
// of the row's time, and the shared-L1 lookups per generated instruction
// (already inside the stepping figure) — the split docs/PERFORMANCE.md
// quotes.  The K rows are all flushing machines, one shared-L1 group;
// paper-mix puts every fourth machine on read-from-WB, which steps the
// raw batch beside the group, as in the paper grid.
func BenchmarkRow(b *testing.B) {
	const n = 100_000
	retireSweep := func(k int, hazard func(i int) core.HazardPolicy) []Config {
		cfgs := make([]Config, k)
		for i := range cfgs {
			d := 2 + i%11
			cfgs[i] = Baseline().WithDepth(d).WithRetire(core.RetireAt{N: 1 + (i/11)%d}).WithHazard(hazard(i))
		}
		return cfgs
	}
	flush := func(int) core.HazardPolicy { return core.FlushFull }
	mix := func(i int) core.HazardPolicy {
		return []core.HazardPolicy{core.FlushFull, core.FlushPartial, core.FlushItemOnly, core.ReadFromWB}[i%4]
	}
	for _, rc := range []struct {
		name string
		cfgs []Config
	}{
		{"K=1", retireSweep(1, flush)},
		{"K=8", retireSweep(8, flush)},
		{"K=32", retireSweep(32, flush)},
		{"paper-mix/K=32", retireSweep(32, mix)},
	} {
		b.Run(rc.name, func(b *testing.B) {
			var gen, step, filter time.Duration
			for i := 0; i < b.N; i++ {
				for _, name := range fusedBenches {
					bench, _ := workload.ByName(name)
					ms := make([]*Machine, len(rc.cfgs))
					for j, cfg := range rc.cfgs {
						ms[j] = MustNew(cfg)
					}
					row := NewRow(ms)
					if err := row.Run(context.Background(), bench.Generator(n), n/4); err != nil {
						b.Fatal(err)
					}
					gen += row.Gen
					filter += row.filter
					for _, d := range row.Step {
						step += d
					}
				}
			}
			instr := float64(b.N) * float64(len(fusedBenches)) * n
			b.ReportMetric(float64(gen)/instr, "gen-ns/instr")
			b.ReportMetric(float64(step)/instr/float64(len(rc.cfgs)), "sim-ns/instr")
			b.ReportMetric(float64(filter)/instr, "filter-ns/instr")
			b.ReportMetric(100*float64(gen)/float64(gen+step), "gen-%")
		})
	}
}
