package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// depthSpecs returns k distinct FIFO configurations.
func depthSpecs(k int) []ConfigSpec {
	specs := make([]ConfigSpec, k)
	for i := range specs {
		d, hwm := 1+i%16, 1+i/16
		hwm = min(hwm, d)
		specs[i] = ConfigSpec{
			Label: fmt.Sprintf("depth=%d,retire=%d#%d", d, hwm, i),
			Cfg:   sim.Baseline().WithDepth(d).WithRetire(core.RetireAt{N: hwm}),
		}
	}
	return specs
}

// TestRowHarnessContract runs a matrix whose benchmarks each span two
// lockstep rows on one worker and checks the harness contract under rows:
// one Progress event and one experiment_job_microseconds sample per job,
// Done running 1..B×C, every row's summed JobTime within 5% of the row's
// wall time, and a matrix byte-identical to running every job alone.
func TestRowHarnessContract(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benches := []workload.Benchmark{bench(t, "li"), bench(t, "tomcatv")}
	specs := depthSpecs(40)
	const n = 100_000
	rows := rowsPerBench(len(benches), len(specs), 1)
	if rows != 2 {
		t.Fatalf("rowsPerBench = %d, want 2 rows of 20", rows)
	}

	type arrival struct {
		at time.Time
		ev ProgressEvent
	}
	var got []arrival
	reg := metrics.NewRegistry()
	start := time.Now()
	out, err := RunMatrixCtx(context.Background(), benches, specs, Options{
		Instructions: n,
		Metrics:      reg,
		Progress:     func(ev ProgressEvent) { got = append(got, arrival{time.Now(), ev}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	total := len(benches) * len(specs)
	if len(got) != total {
		t.Fatalf("progress called %d times, want %d", len(got), total)
	}
	for i, a := range got {
		if a.ev.Done != i+1 || a.ev.Total != total {
			t.Fatalf("event %d: Done/Total = %d/%d, want %d/%d", i, a.ev.Done, a.ev.Total, i+1, total)
		}
	}
	if c := reg.Histogram("experiment_job_microseconds").Count(); c != uint64(total) {
		t.Errorf("experiment_job_microseconds count = %d, want %d", c, total)
	}

	// One worker runs the rows back to back, so a row's wall time is the
	// gap between its last event and the previous row's.
	prev := start
	width := len(specs) / rows
	for r := 0; r < total/width; r++ {
		var sum time.Duration
		for _, a := range got[r*width : (r+1)*width] {
			sum += a.ev.JobTime
		}
		end := got[(r+1)*width-1].at
		wall := end.Sub(prev)
		prev = end
		if diff := wall - sum; diff < 0 || diff > wall/20 {
			t.Errorf("row %d: job times sum to %v, row wall time %v (want within 5%%)", r, sum, wall)
		}
	}

	alone, err := RunMatrixCtx(context.Background(), benches, specs,
		Options{Instructions: n, Backend: &dispatch.Local{}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, alone) {
		t.Error("lockstep rows differ from running every job alone")
	}
}

// TestRowsPerBench pins the row split: rows never exceed rowWidth, and a
// matrix has at least one row per worker while it has jobs to split.
func TestRowsPerBench(t *testing.T) {
	for _, tc := range []struct{ benches, specs, workers, want int }{
		{1, 20, 2, 2},  // one benchmark still uses both CPUs
		{1, 20, 1, 1},  // one worker: one row
		{17, 95, 2, 3}, // the paper_sweep grid: rows of 31-32
		{17, 1, 2, 1},  // table6-shaped: every row is one job
		{1, 3, 8, 3},   // never more rows than specs
		{2, 64, 2, 2},  // exactly rowWidth wide
		{3, 65, 16, 6}, // more workers than rowWidth asks for
		{0, 10, 2, 0},  // nothing to run
		{4, 0, 2, 0},
	} {
		got := rowsPerBench(tc.benches, tc.specs, tc.workers)
		if got != tc.want {
			t.Errorf("rowsPerBench(%d, %d, %d) = %d, want %d",
				tc.benches, tc.specs, tc.workers, got, tc.want)
		}
		if got > 0 && (tc.specs+got-1)/got > rowWidth {
			t.Errorf("rowsPerBench(%d, %d, %d) = %d: rows wider than %d",
				tc.benches, tc.specs, tc.workers, got, rowWidth)
		}
	}
}

// TestRowCancelLatency cancels a sweep whose rows would run for seconds:
// RunMatrixCtx must return ctx.Err() within about one reference batch per
// worker, not after the rows finish.
func TestRowCancelLatency(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := make(chan time.Time, 1)
	timer := time.AfterFunc(50*time.Millisecond, func() {
		cancelled <- time.Now()
		cancel()
	})
	defer timer.Stop()
	_, err := RunMatrixCtx(ctx, []workload.Benchmark{bench(t, "li")}, depthSpecs(20),
		Options{Instructions: 50_000_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if lag := time.Since(<-cancelled); lag > 500*time.Millisecond {
		t.Errorf("sweep returned %v after cancellation", lag)
	}
}

// TestMatrixInvalidConfigIsAnError: an inconsistent configuration on the
// in-process path is the sweep's error, not a panic on a pool goroutine
// (which no caller could recover).
func TestMatrixInvalidConfigIsAnError(t *testing.T) {
	bad := sim.Baseline()
	bad.WB.Depth = 0
	specs := []ConfigSpec{{Label: "ok", Cfg: sim.Baseline()}, {Label: "depth0", Cfg: bad}}
	_, err := RunMatrixCtx(context.Background(), []workload.Benchmark{bench(t, "li")}, specs,
		Options{Instructions: 10_000})
	if err == nil {
		t.Fatal("invalid configuration reported success")
	}
	if !strings.Contains(err.Error(), "depth0") || !strings.Contains(err.Error(), "depth 0") {
		t.Errorf("error %q does not name the configuration and its fault", err)
	}
}
