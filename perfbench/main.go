// Command perfbench is the repository's benchmark.  It runs one of three
// closed-loop workloads for a fixed time, checks every output it timed, and
// prints one JSON result line:
//
//	perfbench -workload paper_sweep|serve_mixed|serve_sweep -seed N -seconds S -trace 0|1
//
// -workload all runs the three in turn, each result line after a "== name"
// line.  The exit code is non-zero when any output check fails.
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics derived from spans the benchmark records
// around its calls into each layer.  README.md explains the workloads, the
// metrics and how the two relate.  run.sh builds the program and wbserve
// from source and runs this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	wbserve string // path of the wbserve binary (served workloads)
	work    string // scratch directory for stores, journals and traces
	procs   int    // thread and connection ceiling: the CPUs this process may use
}

// outcome is one workload run: counts, both metric sets, the sample count
// behind each percentile, and every failed output check.
type outcome struct {
	mu                sync.Mutex // guards checks and notes
	attempted, failed int
	e2e, layer        map[string]metric
	samples           map[string]int
	checks            []string
	notes             []string
	spans             *tracer
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layer: map[string]metric{}, samples: map[string]int{}}
}

func (o *outcome) failCheck(format string, args ...any) {
	o.mu.Lock()
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
	o.mu.Unlock()
}

// note keeps the first few failed-operation messages for the report; the
// operations themselves are counted in failed.
func (o *outcome) note(format string, args ...any) {
	o.mu.Lock()
	if len(o.notes) < 10 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

// latency records a class's p50 and p90 under the given end-to-end metric
// names, with their sample count, and the share of its samples dropped
// under the given per-layer name.
func (o *outcome) latency(l *latencyStats, p50name, p90name, droppedName string) error {
	p50, p90, err := l.percentiles()
	if err != nil {
		return err
	}
	o.e2e[p50name] = metric{p50, "ms"}
	o.e2e[p90name] = metric{p90, "ms"}
	o.samples[p50name] = len(l.samples)
	o.samples[p90name] = len(l.samples)
	o.layer[droppedName] = metric{100 * float64(l.dropped) / float64(l.dropped+len(l.samples)), "%"}
	return nil
}

// endToEndMetrics and perLayerMetrics name, with its unit, every metric a
// run prints: every workload reports every one, so runs of different
// workloads and commits compare name for name.  BENCHMARK.json declares the
// same sets.
var endToEndMetrics = map[string]string{
	"setup_s":     "s",
	"jobs_per_s":  "1/s",
	"mips":        "MIPS",
	"p50_ms":      "ms",
	"p90_ms":      "ms",
	"hit_p50_ms":  "ms",
	"hit_p90_ms":  "ms",
	"peak_rss_mb": "MiB",
}

var perLayerMetrics = map[string]string{
	"rng.uint64_ns":               "ns",
	"rng.geo_sample_ns":           "ns",
	"workload.gen_ns_per_instr":   "ns",
	"workload.gen_share":          "ratio",
	"workload.instr_generated":    "count",
	"sim.ns_per_instr":            "ns",
	"sim.instr_simulated":         "count",
	"sim.cycles":                  "count",
	"sim.stall_buffer_full":       "count",
	"sim.stall_l2_read":           "count",
	"sim.stall_load_hazard":       "count",
	"sim.sample_cells":            "count",
	"experiment.job_ms_p50":       "ms",
	"experiment.job_ms_p90":       "ms",
	"experiment.pool_busy_frac":   "ratio",
	"experiment.tail_ms":          "ms",
	"dispatch.cached_hit_us":      "us",
	"dispatch.store_misses":       "count",
	"dispatch.dup_executions":     "count",
	"dispatch.dup_base":           "count",
	"resultstore.get_mem_us":      "us",
	"resultstore.get_disk_us":     "us",
	"resultstore.put_us":          "us",
	"resultstore.hit_ratio":       "ratio",
	"resultstore.hits":            "count",
	"resultstore.lookups":         "count",
	"jobqueue.submit_us":          "us",
	"jobqueue.dequeue_done_us":    "us",
	"jobqueue.deduped":            "count",
	"machconf.hash_us":            "us",
	"wbserve.admit_ms":            "ms",
	"wbserve.first_event_ms":      "ms",
	"wbserve.request_overhead_ms": "ms",
	"wbserve.inflight_requests":   "count",
	"trace.overhead_pct":          "%",
	"trace.ladder_ratio":          "ratio",
	"trace.spans":                 "count",
	"host.steal_pct":              "%",
	"host.kept_steal_pct":         "%",
	"host.phase_s":                "s",
	"host.dropped_pct":            "%",
	"host.hit_dropped_pct":        "%",
}

// checkNames fails a run whose metric set differs from the declared one.
func checkNames(got map[string]metric, want map[string]string) error {
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s missing", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s in %s, declared in %s", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"paper_sweep": runPaperSweep,
	"serve_mixed": runServeMixed,
	"serve_sweep": runServeSweep,
}

func main() {
	name := flag.String("workload", "", "workload: paper_sweep, serve_mixed, serve_sweep, or all three in turn")
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", 20, "length of the measured phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	wbserve := flag.String("wbserve", "", "wbserve binary the served workloads start")
	work := flag.String("work", filepath.Join(os.TempDir(), "perfbench"), "scratch directory")
	writeGolden := flag.String("write-golden", "", "recompute every paper_sweep cell and write the golden digest file here")
	flag.Parse()

	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	if *writeGolden != "" {
		if err := regenerateGolden(*writeGolden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		wbserve: *wbserve,
		work:    *work,
		procs:   procs,
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	code := 0
	for _, n := range names {
		run, ok := workloads[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", n)
			os.Exit(2)
		}
		if len(names) > 1 {
			fmt.Println("==", n)
		}
		if err := runOne(n, run, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			code = 1
		}
	}
	os.Exit(code)
}

// workloadOrder is the order -workload all runs them in.
var workloadOrder = []string{"paper_sweep", "serve_mixed", "serve_sweep"}

// runOne runs a workload and prints its result line.  It fails when the run
// could not complete, printed an undeclared metric set, or failed a check.
func runOne(name string, run func(runConfig) (*outcome, error), cfg runConfig) error {
	out, err := run(cfg)
	if err != nil {
		return err
	}
	if out.spans != nil {
		path := filepath.Join(cfg.work, "traces", name+".csv")
		if err := out.spans.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	}
	metrics, declared := out.e2e, endToEndMetrics
	if cfg.trace {
		metrics, declared = out.layer, perLayerMetrics
	}
	report(name, out)
	if err := checkNames(metrics, declared); err != nil {
		return err
	}
	res := result{
		Correct:   len(out.checks) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d output checks failed", len(out.checks))
	}
	return nil
}

// report prints every metric of both sets, with percentile sample counts
// and failed checks, to standard error for a human reader.
func report(name string, o *outcome) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: attempted %d, failed %d\n", name, o.attempted, o.failed)
	for _, set := range []struct {
		title string
		m     map[string]metric
	}{{"end-to-end", o.e2e}, {"per-layer", o.layer}} {
		if len(set.m) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %s\n", set.title)
		keys := make([]string, 0, len(set.m))
		for k := range set.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := set.m[k]
			fmt.Fprintf(&b, "    %-32s %14.6g %-6s", k, m.Value, m.Unit)
			if n, ok := o.samples[k]; ok {
				fmt.Fprintf(&b, " (n=%d)", n)
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range o.notes {
		fmt.Fprintf(&b, "  failed operation: %s\n", n)
	}
	for _, c := range o.checks {
		fmt.Fprintf(&b, "  CHECK FAILED: %s\n", c)
	}
	fmt.Fprint(os.Stderr, b.String())
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
