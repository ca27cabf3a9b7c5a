// Command wbtrace inspects the reference streams the benchmarks generate:
// the dynamic instruction mix, a prefix dump, and a line-footprint summary.
// It is the debugging companion to the workload package — the equivalent of
// eyeballing an ATOM trace.
//
// Usage:
//
//	wbtrace -bench compress -n 200000          # mix + footprint
//	wbtrace -bench fft -dump 40                # first 40 references
//	wbtrace -bench li -record li.wbt           # save a binary trace
//	wbtrace -replay li.wbt                     # analyse a saved trace
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "", "benchmark name")
		n         = flag.Uint64("n", 200_000, "references to analyse")
		dump      = flag.Int("dump", 0, "dump the first k references")
		record    = flag.String("record", "", "write the stream to a binary trace file")
		replay    = flag.String("replay", "", "analyse a recorded trace file instead of a benchmark")
	)
	flag.Parse()

	var g trace.Generator
	var name string
	decodeErr := func() error { return nil }
	switch {
	case *replay != "":
		fh, err := os.Open(*replay)
		if err != nil {
			fatalf("%v", err)
		}
		defer fh.Close()
		r, err := trace.NewReader(fh)
		if err != nil {
			fatalf("%v", err)
		}
		g, name, decodeErr = r, *replay, r.Err
	default:
		b, ok := workload.ByName(*benchName)
		if !ok {
			fatalf("unknown benchmark %q", *benchName)
		}
		g, name = b.Generator(*n), *benchName
		if *record != "" {
			fh, err := os.Create(*record)
			if err != nil {
				fatalf("%v", err)
			}
			count, err := trace.Write(fh, g)
			if err2 := fh.Close(); err == nil {
				err = err2
			}
			if err != nil {
				fatalf("recording: %v", err)
			}
			fmt.Printf("recorded %d references of %s to %s\n", count, name, *record)
			return
		}
	}
	analyse(g, name, *dump, decodeErr)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wbtrace: "+format+"\n", args...)
	os.Exit(1)
}

// analyse prints the first dump references of g, one per dynamic
// instruction, or with dump 0 its mix and footprint.  A decodeErr after
// reading (a truncated or corrupt trace file) is fatal: a prefix must not
// pass for the whole trace.
func analyse(g trace.Generator, name string, dump int, decodeErr func() error) {
	if dump > 0 {
		s := trace.NewGeneratorStream(g)
		for i := 0; i < dump; i++ {
			r, ok := s.Next()
			if !ok {
				break
			}
			if r.Kind == trace.Exec {
				fmt.Printf("%6d  exec\n", i)
			} else {
				fmt.Printf("%6d  %-5s %#012x (line %#x, word %d)\n",
					i, r.Kind, r.Addr,
					mem.DefaultGeometry.LineBase(r.Addr),
					mem.DefaultGeometry.WordIndex(r.Addr))
			}
		}
		if err := decodeErr(); err != nil {
			fatalf("%s: %v", name, err)
		}
		return
	}

	var mix trace.Mix
	loadLines := map[mem.Addr]uint64{}
	storeLines := map[mem.Addr]uint64{}
	buf := make([]trace.Ref, 4096)
	for n := g.Fill(buf); n > 0; n = g.Fill(buf) {
		for _, r := range buf[:n] {
			mix.Add(r)
			switch r.Kind {
			case trace.Load:
				loadLines[mem.DefaultGeometry.LineTag(r.Addr)]++
			case trace.Store:
				storeLines[mem.DefaultGeometry.LineTag(r.Addr)]++
			}
		}
	}
	if err := decodeErr(); err != nil {
		fatalf("%s: %v", name, err)
	}

	fmt.Printf("source      %s\n", name)
	fmt.Printf("refs        %d\n", mix.Total())
	fmt.Printf("mix         %.1f%% loads, %.1f%% stores\n",
		mix.PctLoads(), mix.PctStores())
	fmt.Printf("footprint   %d load lines (%.0f KB), %d store lines (%.0f KB)\n",
		len(loadLines), float64(len(loadLines)*mem.LineBytes)/1024,
		len(storeLines), float64(len(storeLines)*mem.LineBytes)/1024)
	fmt.Printf("reuse       top-10%% hottest load lines cover %.1f%% of loads\n",
		topShare(loadLines, mix.Loads))
}

// topShare reports what fraction of accesses the hottest 10% of lines get —
// a quick locality fingerprint.
func topShare(lines map[mem.Addr]uint64, total uint64) float64 {
	if len(lines) == 0 || total == 0 {
		return 0
	}
	counts := make([]uint64, 0, len(lines))
	for _, c := range lines {
		counts = append(counts, c)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	top := len(counts) / 10
	if top == 0 {
		top = 1
	}
	var sum uint64
	for _, c := range counts[:top] {
		sum += c
	}
	return 100 * float64(sum) / float64(total)
}
