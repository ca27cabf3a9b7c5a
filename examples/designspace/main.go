// Designspace: sweep the three write-buffer design axes the paper studies —
// depth, retirement policy, and load-hazard policy — over one benchmark and
// print a compact map of the space, ending with the paper's recommended
// configuration.
//
//	go run ./examples/designspace            # sweeps li
//	go run ./examples/designspace -bench fft -n 500000
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	benchName := flag.String("bench", "li", "benchmark to sweep")
	n := flag.Uint64("n", 300_000, "instructions per run")
	flag.Parse()

	b, ok := workload.ByName(*benchName)
	if !ok {
		fmt.Fprintf(os.Stderr, "designspace: unknown benchmark %q\n", *benchName)
		os.Exit(1)
	}

	measure := func(cfg sim.Config) float64 {
		m := sim.MustNew(cfg)
		m.Run(b.Generator(*n))
		return m.Counters().TotalStallPct()
	}

	fmt.Printf("design-space sweep on %s (%d instructions per point)\n\n", b.Name, *n)

	fmt.Println("depth (retire-at-2, flush-full):")
	for _, d := range []int{2, 4, 6, 8, 10, 12} {
		fmt.Printf("  %2d-deep  %5.2f%% stall\n", d, measure(sim.Baseline().WithDepth(d)))
	}

	fmt.Println("\nretirement policy (12-deep, flush-full):")
	for _, hwm := range []int{2, 4, 6, 8, 10} {
		cfg := sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: hwm})
		fmt.Printf("  retire-at-%-2d  %5.2f%% stall\n", hwm, measure(cfg))
	}

	fmt.Println("\nload-hazard policy (12-deep, retire-at-8):")
	for _, h := range core.HazardPolicies {
		cfg := sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(h)
		fmt.Printf("  %-16s %5.2f%% stall\n", h, measure(cfg))
	}

	best := sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB)
	fmt.Printf("\npaper's recommendation (deep, read-from-WB, 4-6 entries headroom): %.2f%%\n",
		measure(best))
	fmt.Printf("baseline (Alpha 21064-like):                                       %.2f%%\n",
		measure(sim.Baseline()))
}
