// Barriers: show what memory barriers cost as a function of write-stage
// depth and policy — the multiprocessor-ordering tax the paper alludes to
// when it notes that coalescing and read-bypassing reorder stores.
//
// A barrier must drain every buffered store to L2, so exactly the designs
// that win on uniprocessor stalls (deep, lazy, read-from-WB) hold the most
// data and pay the most per barrier.
//
//	go run ./examples/barriers
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	const n = 300_000
	b, ok := workload.ByName("li")
	if !ok {
		panic("li missing")
	}

	configs := []struct {
		label string
		cfg   sim.Config
	}{
		{"4-deep retire-at-2", sim.Baseline()},
		{"12-deep retire-at-8 RWB", sim.Baseline().WithDepth(12).
			WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB)},
		{"write cache, 8 entries", sim.Baseline().WithWriteCache(8)},
	}
	periods := []uint64{0, 2000, 500, 100}

	fmt.Printf("benchmark li, %d instructions; cells: total stall %% (membar share)\n\n", n)
	fmt.Printf("%-26s", "barrier period")
	for _, p := range periods {
		if p == 0 {
			fmt.Printf(" %14s", "none")
		} else {
			fmt.Printf(" %14d", p)
		}
	}
	fmt.Println()
	for _, c := range configs {
		fmt.Printf("%-26s", c.label)
		for _, period := range periods {
			m := sim.MustNew(c.cfg)
			var s trace.Stream = b.Stream(n)
			if period > 0 {
				s = trace.NewInject(s, trace.Ref{Kind: trace.Membar}, period)
			}
			m.Run(trace.GeneratorOf(s))
			cnt := m.Counters()
			fmt.Printf(" %6.2f (%5.2f)", cnt.TotalStallPct(), cnt.StallPct(stats.MembarDrain))
		}
		fmt.Println()
	}
	fmt.Println("\ndeeper and lazier write stages pay more per barrier: the ordering")
	fmt.Println("cost rises with exactly the state that makes them fast elsewhere.")
}
