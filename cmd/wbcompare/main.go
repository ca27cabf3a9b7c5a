// Command wbcompare races two write-buffer configurations across the whole
// benchmark suite and prints per-benchmark deltas — the quickest way to
// answer "does this design change help?".
//
// Usage:
//
//	wbcompare -a depth=4 -b depth=12,retire=8,hazard=read-from-WB
//	wbcompare -a depth=8 -b wcache=8 -n 500000
//	wbcompare -a @deep.json -b @deep.json,hazard=flush-full
//
// A configuration is a machconf spec string — the same syntax wbsim, wbexp,
// and wbopt speak: a comma-separated list of key=value pairs over the
// baseline machine (depth, width, retire, aging, hazard, wcache, l1, l2lat,
// l2, memlat, threshold, issue), or @file.json to start from a canonical
// machconf file (wbsim -dump-config writes one), optionally followed by
// more key=value overrides.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiment"
	"repro/internal/machconf"
	"repro/internal/workload"
)

func main() {
	var (
		aSpec = flag.String("a", "depth=4", "first configuration")
		bSpec = flag.String("b", "depth=12,retire=8,hazard=read-from-WB", "second configuration")
		n     = flag.Uint64("n", 300_000, "instructions per run")
	)
	flag.Parse()

	cfgA, err := machconf.ParseSpec(*aSpec)
	if err != nil {
		fatalf("-a: %v", err)
	}
	cfgB, err := machconf.ParseSpec(*bSpec)
	if err != nil {
		fatalf("-b: %v", err)
	}

	fmt.Printf("A: %s\nB: %s\n\n", *aSpec, *bSpec)
	fmt.Printf("%-12s %10s %10s %10s\n", "benchmark", "A stall%", "B stall%", "Δ (B−A)")
	// Each benchmark's two configurations step one shared stream (a
	// lockstep row), in parallel across benchmarks.
	benches := workload.All()
	specs := []experiment.ConfigSpec{{Label: "a", Cfg: cfgA}, {Label: "b", Cfg: cfgB}}
	matrix := experiment.RunMatrixOpts(benches, specs, experiment.Options{Instructions: *n})
	var sumA, sumB float64
	for i, b := range benches {
		ta, tb := matrix[i][0].C.TotalStallPct(), matrix[i][1].C.TotalStallPct()
		sumA += ta
		sumB += tb
		marker := ""
		switch {
		case tb < ta-0.05:
			marker = "  B wins"
		case ta < tb-0.05:
			marker = "  A wins"
		}
		fmt.Printf("%-12s %10.2f %10.2f %+10.2f%s\n", b.Name, ta, tb, tb-ta, marker)
	}
	k := float64(len(benches))
	fmt.Printf("%-12s %10.2f %10.2f %+10.2f\n", "mean", sumA/k, sumB/k, (sumB-sumA)/k)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wbcompare: "+format+"\n", args...)
	os.Exit(1)
}
