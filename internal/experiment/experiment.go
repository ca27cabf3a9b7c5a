// Package experiment regenerates every table and figure of the paper's
// evaluation: Figure 3 (baseline stalls) through Figure 13 (memory
// latency), and Tables 4 through 7.  Each experiment runs a set of machine
// configurations over the benchmark suite and formats the results the way
// the paper reports them — stall cycles as a percentage of execution time,
// split into the three write-buffer-induced categories.
//
// The harness is observable while it runs.  Options.Progress registers a
// callback fired after every completed (benchmark, configuration) job —
// ProgressReporter turns it into a live terminal line with ETA and
// aggregate MIPS — and Options.Metrics names a metrics.Registry that
// accumulates per-job wall time, simulated instructions and cycles, and
// every simulator counter (stall categories, occupancy, retirement
// latency) across the run; cmd/wbserve serves the same registry over
// HTTP.
//
// Execution is pluggable.  Matrix jobs are fully independent and
// deterministic, so Options.Backend can swap the in-process runner for
// any internal/dispatch backend: a dispatch.Remote shards the sweep
// across `wbserve -worker` processes, and a dispatch.Cached over the
// result store keeps completed jobs so a killed sweep resumes where it
// stopped.
// The default (nil) backend runs every job in this process, unchanged.
// Either way a failed job — an invalid configuration, a backend that
// exhausted its retries — is a value: RunMatrixCtx, the one matrix runner,
// and every experiment's Run return it as an error.
// docs/DISTRIBUTED.md is the operator guide for the distributed path.
//
// The per-experiment index in DESIGN.md maps every experiment ID here to
// the paper item it reproduces; EXPERIMENTS.md records measured-vs-paper
// outcomes.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/machconf"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options controls experiment execution.
type Options struct {
	// Instructions is the dynamic instruction count per benchmark run.
	// Zero selects the default of one million.  The first quarter of each
	// run is warm-up: it executes normally but is excluded from the
	// statistics, so cold-start misses do not distort hit rates the way
	// they would not in the paper's full-execution runs.
	Instructions uint64
	// Benchmarks overrides the benchmark list (default: the full suite).
	Benchmarks []workload.Benchmark
	// Progress, when non-nil, is called after each completed (benchmark,
	// configuration) job of a matrix run.  Calls are serialised and Done
	// increases by exactly one per call, so a matrix of B benchmarks and
	// C configurations produces exactly B×C calls with Done running from
	// 1 to B×C.  The callback runs on worker goroutines while the matrix
	// is executing; keep it fast.
	Progress func(ProgressEvent)
	// Metrics, when non-nil, accumulates observability counters for the
	// run: experiment_* throughput series (jobs, wall time, instructions,
	// simulated cycles) and — on the default in-process path — the sim_*
	// counters published by every finished machine.
	Metrics *metrics.Registry
	// Backend, when non-nil, executes matrix jobs through
	// internal/dispatch instead of in-process: dispatch.Remote shards a
	// sweep across wbserve workers, dispatch.Cached stores completed
	// jobs for resumption, and dispatch.Local reproduces the default path
	// explicitly.  nil keeps today's behaviour exactly.
	// Benchmarks handed to a matrix run must be name-resolvable
	// (workload.ByName) for a backend, since jobs travel by benchmark
	// name; experiments over derived ones run in-process instead.
	Backend dispatch.Backend
}

func (o Options) instructions() uint64 {
	if o.Instructions == 0 {
		return 1_000_000
	}
	return o.Instructions
}

func (o Options) benchmarks() []workload.Benchmark {
	if o.Benchmarks == nil {
		return workload.All()
	}
	return o.Benchmarks
}

// Measurement is the outcome of one (benchmark, configuration) run.  It
// is an alias of dispatch.Measurement so the harness and the execution
// backends share one type; fields are documented there.
type Measurement = dispatch.Measurement

// ConfigSpec pairs a configuration with its display label.
type ConfigSpec struct {
	Label string
	Cfg   sim.Config
}

// baseline is the one-spec list of the reports that vary the workload, not
// the machine.
var baseline = []ConfigSpec{{Label: "base", Cfg: sim.Baseline()}}

// Canonical renders the spec's machine in machconf's canonical form — the
// same bytes the dispatch wire format ships and wbsim -dump-config prints.
func (s ConfigSpec) Canonical() ([]byte, error) {
	return machconf.Encode(s.Cfg)
}

// Hash returns the machine's canonical machconf content address, the
// identity the result store and the wbserve result cache key on.
func (s ConfigSpec) Hash() (string, error) {
	return machconf.Hash(s.Cfg)
}

// CustomSweep builds an unregistered experiment over caller-supplied
// configurations — the wbexp -config path, where the specs come from
// machconf files rather than a paper figure.  The report has the standard
// stall-figure shape.
func CustomSweep(specs []ConfigSpec) Experiment {
	return stallFigure("custom", "Custom sweep (machconf configurations)",
		func() []ConfigSpec { return specs })
}

// RunMatrixCtx runs every benchmark against every configuration and
// returns measurements indexed as [benchmark][config] following the input
// orders.  o.Instructions selects the per-run instruction count;
// o.Benchmarks is ignored — the benchmark list is the explicit argument.
// o.Progress is invoked once per completed job (serialised, Done monotone
// from 1 to len(benches)×len(specs)) and o.Metrics accumulates throughput
// and simulator counters.  Work runs on a pool of goroutines — sized by
// GOMAXPROCS, or by the backend's Concurrency hint when it offers one (a
// remote pool wants width proportional to its workers, not to local
// cores).
//
// With o.Backend nil every job executes in-process, in lockstep rows: each
// benchmark's consecutive specs are cut into even rows of at most
// rowWidth machines that step one shared reference stream
// (dispatch.ExecuteRow), so the stream is generated once per row instead
// of once per job.  Each job still reports its own Progress event and
// metrics, with its attributed host time, and its measurement is
// byte-identical to running it alone.  A backend runs one job per call.
//
// The first failure — an invalid configuration, or a backend error —
// cancels the remaining work and is returned; cancelling ctx returns
// ctx.Err() within one reference batch per worker.  The partial matrix is
// discarded (a store-backed dispatch.Cached keeps the completed jobs for
// the rerun).
func RunMatrixCtx(ctx context.Context, benches []workload.Benchmark, specs []ConfigSpec, o Options) ([][]Measurement, error) {
	return runMatrix(ctx, benches, specs, o, noVisit)
}

func noVisit(bi, ci int, m *sim.Machine) {}

// CountJob adds one finished job to reg's experiment_* throughput series:
// jobs, instructions, simulated cycles and job wall time.  Matrix runs and
// wbserve's dispatchers both count through it, so a served job and a
// matrix job publish the same series.
func CountJob(reg *metrics.Registry, m Measurement, jobTime time.Duration) {
	reg.Counter("experiment_jobs_total").Inc()
	reg.Counter("experiment_instructions_total").Add(m.C.Instructions)
	reg.Counter("experiment_sim_cycles_total").Add(m.C.Cycles)
	reg.Histogram("experiment_job_microseconds").Observe(uint64(jobTime.Microseconds()))
}

// runMatrix is RunMatrixCtx that hands job (bi, ci)'s finished machine to
// visit on the worker that ran it; a backend has no machines to hand over.
func runMatrix(ctx context.Context, benches []workload.Benchmark, specs []ConfigSpec, o Options, visit func(bi, ci int, m *sim.Machine)) ([][]Measurement, error) {
	n := o.instructions()
	out := make([][]Measurement, len(benches))
	for i := range out {
		out[i] = make([]Measurement, len(specs))
	}
	total := len(benches) * len(specs)
	var (
		progressMu sync.Mutex
		done       int
	)
	report := func(mnt Measurement, jobTime time.Duration) {
		if o.Metrics != nil {
			CountJob(o.Metrics, mnt, jobTime)
		}
		if o.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		done++
		o.Progress(ProgressEvent{
			Done:         done,
			Total:        total,
			Bench:        mnt.Bench,
			Label:        mnt.Label,
			Instructions: mnt.C.Instructions,
			Cycles:       mnt.C.Cycles,
			JobTime:      jobTime,
		})
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}

	workers := runtime.GOMAXPROCS(0)
	rows := len(specs) // a backend runs one job per call
	if o.Backend != nil {
		if h, ok := o.Backend.(interface{ Concurrency() int }); ok {
			if k := h.Concurrency(); k > 0 {
				workers = k
			}
		}
	} else {
		rows = rowsPerBench(len(benches), len(specs), workers)
	}

	// runRow executes specs[lo:hi] of benchmark bi in one lockstep row.
	runRow := func(bi, lo, hi int) {
		labels := make([]string, hi-lo)
		cfgs := make([]sim.Config, hi-lo)
		for i, spec := range specs[lo:hi] {
			labels[i], cfgs[i] = spec.Label, spec.Cfg
		}
		mnts, times, err := dispatch.ExecuteRow(ctx, benches[bi], labels, cfgs, n, o.Metrics,
			func(i int, m *sim.Machine) { visit(bi, lo+i, m) })
		if err != nil {
			if ctx.Err() == nil {
				fail(fmt.Errorf("experiment: benchmark %s: %w", benches[bi].Name, err))
			}
			return
		}
		for i, mnt := range mnts {
			out[bi][lo+i] = mnt
			report(mnt, times[i])
		}
	}
	// runJob executes job (bi, ci) through the backend.
	runJob := func(bi, ci int) {
		start := time.Now()
		mnt, err := o.Backend.Run(ctx, dispatch.Job{
			Bench: benches[bi].Name,
			Label: specs[ci].Label,
			Cfg:   specs[ci].Cfg,
			N:     n,
		})
		if err != nil {
			fail(fmt.Errorf("experiment: job %s/%s: %w", benches[bi].Name, specs[ci].Label, err))
			return
		}
		out[bi][ci] = mnt
		report(mnt, time.Since(start))
	}

	type unit struct{ bi, lo, hi int }
	units := make(chan unit)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range units {
				if ctx.Err() != nil {
					continue // drain; the sweep is aborting
				}
				if o.Backend == nil {
					runRow(u.bi, u.lo, u.hi)
				} else {
					runJob(u.bi, u.lo)
				}
			}
		}()
	}
feed:
	for bi := range benches {
		for r := 0; r < rows; r++ {
			u := unit{bi, r * len(specs) / rows, (r + 1) * len(specs) / rows}
			select {
			case units <- u:
			case <-ctx.Done():
				break feed
			}
		}
	}
	close(units)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// rowWidth caps the machines stepping one reference stream in lockstep.
// Generation cost per job falls as 1/K with K machines in a row, while
// memory grows with K (≤ rowWidth live machines per worker); the value is
// the knee of a measured paper_sweep sweep over 8/16/32/64/all
// (docs/PERFORMANCE.md, "Generate once, simulate many").
const rowWidth = 32

// RowWidth reports rowWidth, so throughput tools can measure the row the
// in-process sweep runs.
func RowWidth() int { return rowWidth }

// rowsPerBench is how many even rows each benchmark's specs are cut into:
// enough that none exceeds rowWidth, and at least enough that the matrix
// has a row for every worker — one benchmark over twenty configs must
// still keep two cores busy.
func rowsPerBench(benches, specs, workers int) int {
	if benches == 0 || specs == 0 {
		return 0
	}
	r := (specs + rowWidth - 1) / rowWidth
	if benches*r < workers {
		r = (workers + benches - 1) / benches
	}
	return min(r, specs)
}

// Experiment is one reproducible paper item.
type Experiment struct {
	// ID is the lookup key: "fig3" … "fig13", "table4" … "table7", or an
	// ablation id like "abl-fixedrate".
	ID string
	// Title describes the experiment, echoing the paper's caption.
	Title string
	// Run executes the experiment and formats its report.  The error is
	// the matrix's first failure (an invalid configuration, a backend
	// error) or ctx's; the report is then nil.
	Run func(ctx context.Context, o Options) (*Report, error)
}

var experimentRegistry = map[string]Experiment{}

func registerExperiment(e Experiment) {
	if _, dup := experimentRegistry[e.ID]; dup {
		panic(fmt.Sprintf("experiment: duplicate id %q", e.ID))
	}
	experimentRegistry[e.ID] = e
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := experimentRegistry[id]
	return e, ok
}

// IDs returns all experiment IDs, figures first, then tables, then
// ablations, each in numeric order.
func IDs() []string {
	ids := make([]string, 0, len(experimentRegistry))
	for id := range experimentRegistry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return idKey(ids[i]) < idKey(ids[j]) })
	return ids
}

// All returns every experiment in IDs() order.
func All() []Experiment {
	ids := IDs()
	out := make([]Experiment, len(ids))
	for i, id := range ids {
		out[i] = experimentRegistry[id]
	}
	return out
}

// idKey produces a sortable key: fig3 < fig10 < table4 < abl-*.
func idKey(id string) string {
	var prefix string
	var num int
	if n, _ := fmt.Sscanf(id, "fig%d", &num); n == 1 {
		prefix = "0fig"
	} else if n, _ := fmt.Sscanf(id, "table%d", &num); n == 1 {
		prefix = "1table"
	} else {
		prefix = "2" + id
	}
	return fmt.Sprintf("%s%04d%s", prefix, num, id)
}
