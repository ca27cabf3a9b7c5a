// Loopinterchange: reproduce Table 6 interactively — run the gmtry and
// cholsky kernels before and after the Lebeck & Wood transformations
// (loop interchange / array transposition) and show how fixing the
// column-major traversal makes the write-buffer stalls vanish.
//
//	go run ./examples/loopinterchange
package main

import (
	"fmt"
	"os"

	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	const n = 400_000
	fmt.Println("Table 6 — column-major traversal vs transformed kernels")
	fmt.Println()
	fmt.Printf("%-12s %8s %8s %10s\n", "kernel", "L1 hit", "WB hit", "stall %")
	for _, pair := range [][2]string{{"gmtry", "gmtry-t"}, {"cholsky", "cholsky-t"}} {
		for _, name := range pair {
			b, ok := workload.ByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "loopinterchange: missing kernel %q\n", name)
				os.Exit(1)
			}
			m := sim.MustNew(sim.Baseline())
			m.Run(b.Generator(n))
			c := m.Counters()
			fmt.Printf("%-12s %7.1f%% %7.1f%% %9.2f%%\n",
				name, 100*c.L1LoadHitRate(), 100*m.WBStoreHitRate(), c.TotalStallPct())
		}
		fmt.Println()
	}
	fmt.Println("the -t variants walk the same arrays at unit stride: both hit rates")
	fmt.Println("jump and the write buffer all but disappears from the profile,")
	fmt.Println("matching the paper's Table 6 and its 'almost no stalls' remark.")
}
