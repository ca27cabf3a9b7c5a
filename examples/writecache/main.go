// Writecache: race the paper's write buffer against Jouppi's write cache
// on one benchmark, showing the tradeoff the related-work section hints
// at: the write cache minimises write traffic (its whole purpose) but its
// single victim path stalls bursty stores.
//
//	go run ./examples/writecache
//	go run ./examples/writecache -bench mdljdp2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	benchName := flag.String("bench", "sc", "benchmark to run")
	n := flag.Uint64("n", 400_000, "instructions")
	flag.Parse()

	b, ok := workload.ByName(*benchName)
	if !ok {
		fmt.Fprintf(os.Stderr, "writecache: unknown benchmark %q\n", *benchName)
		os.Exit(1)
	}

	specs := []experiment.ConfigSpec{
		{Label: "write buffer, 4-deep, flush-full (21064)", Cfg: sim.Baseline()},
		{Label: "write buffer, 8-deep, read-from-WB", Cfg: sim.Baseline().WithDepth(8).
			WithRetire(core.RetireAt{N: 4}).WithHazard(core.ReadFromWB)},
		{Label: "write cache, 4 entries", Cfg: sim.Baseline().WithWriteCache(4)},
		{Label: "write cache, 8 entries", Cfg: sim.Baseline().WithWriteCache(8)},
	}

	fmt.Printf("benchmark %s, %d instructions\n\n", b.Name, *n)
	fmt.Printf("%-44s %8s %10s %14s\n", "configuration", "stall%", "WB hit%", "writes/100 st")
	// The configurations step shared streams in lockstep rows.
	matrix, err := experiment.RunMatrixCtx(context.Background(), []workload.Benchmark{b}, specs,
		experiment.Options{Instructions: *n})
	if err != nil {
		fmt.Fprintf(os.Stderr, "writecache: %v\n", err)
		os.Exit(1)
	}
	for _, m := range matrix[0] {
		writes := m.C.Retirements + m.C.FlushedEntries
		per100 := 100 * float64(writes) / float64(m.C.Stores)
		fmt.Printf("%-44s %8.2f %10.1f %14.1f\n",
			m.Label, m.C.TotalStallPct(), 100*m.WBHit, per100)
	}
	fmt.Println("\nthe write cache coalesces best (fewest L2 writes) but serialises")
	fmt.Println("evictions through one victim register, so bursty stores stall more;")
	fmt.Println("the paper's deep read-from-WB buffer is the balanced design.")
}
