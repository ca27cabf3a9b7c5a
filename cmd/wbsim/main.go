// Command wbsim runs one benchmark on one write-buffer configuration and
// prints the full measurement: cycle counts, the three stall categories,
// and the hit rates — the single-run view of the paper's methodology.
//
// wbsim reports the whole run, cold start included.  wbexp, wbopt and
// wbserve measure only the last three quarters of each job (the first
// quarter warms the caches and buffer), so their counters for the same
// benchmark, machine and -n never match wbsim's.
//
// Usage:
//
//	wbsim -bench li                                # baseline (Table 2)
//	wbsim -bench fft -depth 12 -retire 8 -hazard read-from-WB
//	wbsim -bench su2cor -l2size 524288 -memlat 50 -n 2000000
//	wbsim -trace li.wbt                            # run a recorded trace (wbtrace -record)
//	wbsim -list
//
// The machine can also travel as a spec.  -dump-config prints the
// flag-built machine in machconf's canonical JSON; -config accepts a
// compact machconf spec — key=value pairs (see machconf.ParseSpec for the
// vocabulary, including the drain-side backend keys backend=, banks=,
// rowhit=, rowmiss=, fencecost=, releasecost=), an @file.json blob with
// optional overrides, or a bare path to such a file (the same form
// wbserve's /run accepts and wbexp -config sweeps):
//
//	wbsim -depth 12 -hazard read-from-WB -dump-config > deep.json
//	wbsim -bench li -config deep.json
//	wbsim -bench burstw -config depth=8,banks=8,rowhit=6,rowmiss=18
//	wbsim -bench fenceprod -config @deep.json,fencecost=20,releasecost=4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/machconf"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		benchName  = flag.String("bench", "", "benchmark name (see -list)")
		traceFile  = flag.String("trace", "", "run a recorded trace file instead of a benchmark")
		list       = flag.Bool("list", false, "list benchmarks and exit")
		n          = flag.Uint64("n", 1_000_000, "dynamic instructions to simulate")
		configFile = flag.String("config", "", "machine spec: machconf key=value string, @file.json, or a bare JSON path (replaces the machine flags)")
		dumpConfig = flag.Bool("dump-config", false, "print the machine's canonical machconf JSON and exit")
	)
	flag.Int("depth", 4, "write buffer depth (entries)")
	flag.Int("width", 4, "write buffer entry width (words); 1 = non-coalescing")
	flag.Int("retire", 2, "retire-at high-water mark")
	flag.Uint64("aging", 0, "aging timeout in cycles (0 = off)")
	flag.String("hazard", "flush-full", "load-hazard policy: flush-full, flush-partial, flush-item-only, read-from-WB")
	flag.Int("l1size", 8192, "L1 data cache size in bytes")
	flag.Uint64("l2lat", 6, "L2 access latency in cycles")
	flag.Int("l2size", 0, "finite L2 size in bytes (0 = perfect)")
	flag.Uint64("memlat", 25, "main memory latency in cycles")
	flag.Parse()

	if *list {
		all := append(workload.All(), workload.Transformed()...)
		all = append(all, workload.Scenarios()...)
		for _, b := range all {
			fmt.Printf("%-12s %-10s loads %.1f%%  stores %.1f%% (paper Table 4)\n",
				b.Name, b.Group, b.Target.PctLoads, b.Target.PctStores)
		}
		return
	}

	names, settings := machineFlagsSet()
	spec := strings.Join(settings, ",")
	if *configFile != "" {
		if len(names) > 0 {
			fmt.Fprintf(os.Stderr, "wbsim: -config replaces the machine flags; drop %s\n", names)
			os.Exit(1)
		}
		spec = specArg(*configFile)
	}
	cfg, err := machconf.ParseSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbsim:", err)
		os.Exit(1)
	}

	if *dumpConfig {
		blob, err := machconf.Encode(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wbsim:", err)
			os.Exit(1)
		}
		fmt.Println(string(blob))
		return
	}

	var g trace.Generator
	var r *trace.Reader
	var name string
	if *traceFile != "" {
		fh, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wbsim:", err)
			os.Exit(1)
		}
		defer fh.Close()
		r, err = trace.NewReader(fh)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wbsim:", err)
			os.Exit(1)
		}
		g, name = r, *traceFile
	} else {
		b, ok := workload.ByName(*benchName)
		if !ok {
			fmt.Fprintf(os.Stderr, "wbsim: unknown benchmark %q (try -list)\n", *benchName)
			os.Exit(1)
		}
		g, name = b.Generator(*n), b.Name
	}

	m, err := sim.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbsim:", err)
		os.Exit(1)
	}
	m.Run(g)
	// A trace file that does not decode to its end is an error, not a
	// shorter run.
	if r != nil && r.Err() != nil {
		fmt.Fprintf(os.Stderr, "wbsim: %s: %v\n", name, r.Err())
		os.Exit(1)
	}
	printResult(name, m)
}

// specArg maps a bare file path to ParseSpec's @file form; key=value
// specs and explicit @file specs pass through unchanged, so the old
// `-config machine.json` invocation keeps working.
func specArg(s string) string {
	if strings.Contains(s, "=") || strings.HasPrefix(s, "@") {
		return s
	}
	return "@" + s
}

// machineFlags maps each machine-shaping flag to its machconf spec key;
// their defaults are the baseline's, so only the flags the user set shape
// the machine.
var machineFlags = map[string]string{
	"depth": "depth", "width": "width", "retire": "retire", "aging": "aging",
	"hazard": "hazard", "l1size": "l1", "l2lat": "l2lat", "l2size": "l2", "memlat": "memlat",
}

// machineFlagsSet returns the machine flags the user set explicitly, both
// as flag names (which conflict with -config) and as machconf settings.
func machineFlagsSet() (names []string, settings []machconf.Setting) {
	flag.Visit(func(f *flag.Flag) {
		if key, ok := machineFlags[f.Name]; ok {
			names = append(names, "-"+f.Name)
			settings = append(settings, key+"="+f.Value.String())
		}
	})
	return names, settings
}

func printResult(name string, m *sim.Machine) {
	c := m.Counters()
	fmt.Printf("benchmark        %s\n", name)
	fmt.Printf("instructions     %d\n", c.Instructions)
	fmt.Printf("cycles           %d (CPI %.3f)\n", c.Cycles, c.CPI())
	fmt.Printf("loads            %d (L1 hit %.2f%%)\n", c.Loads, 100*c.L1LoadHitRate())
	fmt.Printf("stores           %d (WB hit %.2f%%)\n", c.Stores, 100*m.WBStoreHitRate())
	fmt.Printf("retirements      %d   flushed entries %d   hazards %d   WB read hits %d\n",
		c.Retirements, c.FlushedEntries, c.HazardEvents, c.WBReadHits)
	fmt.Println()
	fmt.Println("write-buffer-induced stalls (cycles, % of run time):")
	kinds := []stats.StallKind{
		stats.L2ReadAccess, stats.BufferFull, stats.LoadHazard,
		stats.L2IFetch, stats.MembarDrain, stats.ReleaseDrain,
	}
	for _, k := range kinds {
		if (k == stats.L2IFetch || k == stats.MembarDrain || k == stats.ReleaseDrain) && c.Stalls[k] == 0 {
			continue
		}
		fmt.Printf("  %-16s %10d  %6.2f%%\n", k, c.Stalls[k], c.StallPct(k))
	}
	fmt.Printf("  %-16s %10d  %6.2f%%\n", "total", c.WBStallCycles(), c.TotalStallPct())
	fmt.Printf("\nL1 miss service  %10d cycles (charged to the misses themselves)\n", c.MissCycles)
}
