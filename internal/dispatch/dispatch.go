// Package dispatch executes the (benchmark, configuration) jobs of a
// matrix sweep through a pluggable Backend, so the same experiment code
// runs on one machine or across a fleet of wbserve workers.
//
// A sweep is an embarrassingly parallel bag of Jobs: each names a
// benchmark from the registered suite, a complete machine configuration,
// and an instruction count, and every job is deterministic — the same Job
// produces bit-identical Measurements on any machine running this code.
// That determinism is what makes the distributed backends safe: a retried
// job cannot produce a second, different answer, and a journaled result
// can be replayed into a resumed sweep without re-running anything.
//
// Three Backend implementations cover the deployment spectrum:
//
//   - Local runs jobs in-process: a row of jobs that share a benchmark
//     and length per RunRow call, through one ExecuteRow that generates
//     the stream once for all of them; Run is the one-job row.
//     (The backend-less default of experiment.RunMatrixCtx is not Local:
//     it steps each benchmark's configurations in rows with ExecuteRow.)
//   - Remote dispatches jobs over HTTP to a pool of `wbserve -worker`
//     processes (the POST /job endpoint served by WorkerHandler), with
//     per-job timeouts, bounded retries under exponential backoff with
//     jitter, and quarantine plus background re-probing of workers that
//     fail repeatedly.
//   - Cached wraps any backend with the shared content-addressed result
//     store (internal/resultstore), so a job any process already paid for
//     is never simulated again and a killed sweep resumes where it
//     stopped.  Its RunRow answers a row's hits from the store and runs
//     the misses as one row when the inner backend runs rows (Local),
//     one job at a time otherwise (Remote).
//
// RunRow runs a row through any Backend, one Run per job for a backend
// without rows; wbserve's dispatcher runs every queued row through it.
//
// The experiment harness threads a Backend through
// experiment.Options.Backend; cmd/wbexp exposes the remote and
// store-backed backends as the -workers and -store flags.  See
// docs/DISTRIBUTED.md for the operator guide.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Job is one unit of a matrix sweep: run benchmark Bench for N dynamic
// instructions on the machine described by Cfg.  Bench must name a
// benchmark resolvable by workload.ByName — distributed backends ship the
// name, not the stream, and rely on every machine regenerating the same
// deterministic reference stream from it.
type Job struct {
	// Bench is the benchmark name (workload.ByName).
	Bench string
	// Label is the configuration's display label, carried through to the
	// Measurement; it does not affect execution or result-store identity.
	Label string
	// Cfg is the complete machine configuration.
	Cfg sim.Config
	// N is the dynamic instruction count; the first quarter is warm-up.
	N uint64
}

// Measurement is the outcome of one job — the paper's per-(benchmark,
// configuration) data point.  experiment.Measurement aliases this type, so
// the harness and the backends share it.  Every field is a scalar or a
// fixed-size array and survives a JSON round trip bit-exactly, which the
// remote backend and the result store depend on.
type Measurement struct {
	Bench string
	Label string
	C     stats.Counters
	WBHit float64 // write-buffer store hit rate
	L1Hit float64 // L1 load hit rate
	L2Hit float64 // finite-L2 demand-read hit rate (1 for perfect L2)
}

// Backend runs jobs.  Implementations must be safe for concurrent use:
// the experiment harness calls Run from many worker goroutines at once.
type Backend interface {
	// Run executes one job and returns its measurement.  An error means
	// the job did not produce a result (after whatever retries the backend
	// performs internally); the harness aborts the sweep on the first one.
	Run(ctx context.Context, job Job) (Measurement, error)
}

// RowResult is one job's outcome in a row: its measurement and the host
// time attributed to it, or the error that kept it from producing one.
type RowResult struct {
	M    Measurement
	Time time.Duration
	Err  error
}

// rowRunner is a Backend that runs a row of jobs in one call.
type rowRunner interface {
	RunRow(ctx context.Context, jobs []Job) []RowResult
}

// RunRow runs jobs through b and returns one result per job, in order: in
// one call when b runs rows (Local, Cached), otherwise one b.Run per job,
// each timed on its own.
func RunRow(ctx context.Context, b Backend, jobs []Job) []RowResult {
	if rr, ok := b.(rowRunner); ok {
		return rr.RunRow(ctx, jobs)
	}
	out := make([]RowResult, len(jobs))
	for i, job := range jobs {
		t := time.Now()
		out[i].M, out[i].Err = b.Run(ctx, job)
		out[i].Time = time.Since(t)
	}
	return out
}

// ErrUnknownBenchmark marks a job whose Bench resolves to no registered
// benchmark; workers report it as a client error, not a machine failure.
var ErrUnknownBenchmark = errors.New("dispatch: unknown benchmark")

// Execute runs a job in this process.  When reg is non-nil the finished
// machine's counters are folded into it (sim_* series).  Bench resolves
// through workload.ByName — the suite, the transformed variants and the
// stress scenarios, all of which regenerate bit-identical streams on any
// machine, so every such name is safe to ship.  The error is
// ErrUnknownBenchmark-wrapped for an unresolvable benchmark name (a
// derived benchmark, workload.Derive, is never resolvable), and for an
// inconsistent configuration it wraps the sim validation error, naming
// the job's label.
func Execute(job Job, reg *metrics.Registry) (Measurement, error) {
	b, ok := workload.ByName(job.Bench)
	if !ok {
		return Measurement{}, fmt.Errorf("%w: %q", ErrUnknownBenchmark, job.Bench)
	}
	out, _, err := ExecuteRow(context.Background(), b, []string{job.Label}, []sim.Config{job.Cfg}, job.N, reg, nil)
	if err != nil {
		return Measurement{}, err
	}
	return out[0], nil
}

// ExecuteRow runs one benchmark on several configurations in lockstep
// (sim.Row): the reference stream is generated once and every machine
// steps each batch of it, so K configurations cost one generation instead
// of K.  It returns one Measurement per configuration, byte-identical to
// a one-configuration row's, and each job's host time: the machine's own
// time (construction, stepping, measurement) plus 1/K of the row's shared
// time (stream construction and reference generation), so the row's job
// times sum to its wall time.  When reg is non-nil every finished machine's
// counters are folded into it.  When visit is non-nil it receives each
// finished machine with its configuration's index, for callers that read
// machine state a Measurement does not carry, such as the occupancy
// histogram; it runs on the calling goroutine before ExecuteRow returns.
//
// The error wraps the sim validation error of an inconsistent
// configuration, naming its label, and is reported before anything runs;
// or it is ctx.Err() when ctx is cancelled, which the row observes between
// batches.  Either way the generator is closed, which stops a kernel's
// producer goroutine even inside a composed stream (trace.Concat,
// Interleave, Inject).
func ExecuteRow(ctx context.Context, b workload.Benchmark, labels []string, cfgs []sim.Config, n uint64, reg *metrics.Registry, visit func(int, *sim.Machine)) ([]Measurement, []time.Duration, error) {
	if len(cfgs) == 0 {
		return nil, nil, nil
	}
	start := time.Now()
	own := make([]time.Duration, len(cfgs))
	ms := make([]*sim.Machine, len(cfgs))
	for i, cfg := range cfgs {
		t := time.Now()
		m, err := sim.New(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("config %q: %w", labels[i], err)
		}
		ms[i] = m
		own[i] = time.Since(t)
	}
	g := b.Generator(n)
	if c, ok := g.(io.Closer); ok {
		defer c.Close() // stops kernel producers when the row is cancelled
	}
	row := sim.NewRow(ms)
	if err := row.Run(ctx, g, n/4); err != nil {
		return nil, nil, err
	}
	out := make([]Measurement, len(cfgs))
	for i, m := range ms {
		t := time.Now()
		out[i] = measure(m, b.Name, labels[i], cfgs[i])
		if reg != nil {
			m.PublishMetrics(reg)
		}
		if visit != nil {
			visit(i, m)
		}
		own[i] += row.Step[i] + time.Since(t)
	}
	var owned time.Duration
	for _, d := range own {
		owned += d
	}
	shared := (time.Since(start) - owned) / time.Duration(len(cfgs))
	for i := range own {
		own[i] += shared
	}
	return out, own, nil
}

// measure assembles a finished machine's Measurement.
func measure(m *sim.Machine, bench, label string, cfg sim.Config) Measurement {
	c := m.Counters()
	l2 := 1.0
	if cfg.L2 != nil {
		l2 = m.L2Stats().ReadHitRate()
	}
	return Measurement{
		Bench: bench,
		Label: label,
		C:     c,
		WBHit: m.WBStoreHitRate(),
		L1Hit: c.L1LoadHitRate(),
		L2Hit: l2,
	}
}

// WarmRunGenerator executes the first quarter of the generator's n
// instructions unmeasured, then the remainder with statistics on — the
// repository's standard warm-up split (experiment.Options.Instructions
// documents why) — as a one-machine sim.Row.
func WarmRunGenerator(m *sim.Machine, g trace.Generator, n uint64) {
	// A background context never cancels, so Run cannot fail.
	_ = sim.NewRow([]*sim.Machine{m}).Run(context.Background(), g, n/4)
}

// Local is the in-process backend: Run and RunRow execute on the calling
// goroutine.  The zero value is ready to use.
type Local struct {
	// Metrics, when non-nil, receives each finished machine's counters,
	// exactly as the harness's default (backend-less) path does.
	Metrics *metrics.Registry
}

// Run implements Backend: the one-job RunRow.
func (l *Local) Run(ctx context.Context, job Job) (Measurement, error) {
	r := l.RunRow(ctx, []Job{job})[0]
	return r.M, r.Err
}

// RunRow runs jobs that share one Bench and N as one ExecuteRow, so the
// reference stream is generated once for all of them; each result carries
// ExecuteRow's attributed host time.  A job whose configuration fails
// validation, or whose Bench or N differs from the first job's, fails on
// its own and the rest of the row still runs.  An unknown benchmark or a
// cancelled context fails every job.
func (l *Local) RunRow(ctx context.Context, jobs []Job) []RowResult {
	out := make([]RowResult, len(jobs))
	failAll := func(err error) []RowResult {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	if len(jobs) == 0 {
		return out
	}
	if err := ctx.Err(); err != nil {
		return failAll(err)
	}
	bench, n := jobs[0].Bench, jobs[0].N
	b, ok := workload.ByName(bench)
	if !ok {
		return failAll(fmt.Errorf("%w: %q", ErrUnknownBenchmark, bench))
	}
	var idx []int
	var labels []string
	var cfgs []sim.Config
	for i, job := range jobs {
		invalid := job.Cfg.Validate()
		switch {
		case job.Bench != bench || job.N != n:
			out[i].Err = fmt.Errorf("dispatch: job %q (%s, n=%d) is not in the row of %s, n=%d", job.Label, job.Bench, job.N, bench, n)
		case invalid != nil:
			out[i].Err = fmt.Errorf("config %q: %w", job.Label, invalid)
		default:
			idx = append(idx, i)
			labels = append(labels, job.Label)
			cfgs = append(cfgs, job.Cfg)
		}
	}
	ms, times, err := ExecuteRow(ctx, b, labels, cfgs, n, l.Metrics, nil)
	for k, i := range idx {
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i] = RowResult{M: ms[k], Time: times[k]}
	}
	return out
}
