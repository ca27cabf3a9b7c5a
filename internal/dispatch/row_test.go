package dispatch

import (
	"context"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestExecuteRowMatchesExecuteBench runs every wire config in one row:
// each Measurement equals ExecuteBench's, the published sim_* series
// equal the single jobs' combined, and the job times sum to the row's
// wall time.
func TestExecuteRowMatchesExecuteBench(t *testing.T) {
	const n = 200_000
	b, _ := workload.ByName("compress")
	var labels []string
	for label := range wireConfigs() {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	cfgs := make([]sim.Config, len(labels))
	for i, label := range labels {
		cfgs[i] = wireConfigs()[label]
	}

	rowReg, aloneReg := metrics.NewRegistry(), metrics.NewRegistry()
	start := time.Now()
	got, times, err := ExecuteRow(context.Background(), b, labels, cfgs, n, rowReg)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for i, label := range labels {
		want, err := ExecuteBench(b, label, cfgs[i], n, aloneReg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got[i]) {
			t.Errorf("%s: row measurement differs\nalone: %+v\nrow:   %+v", label, want, got[i])
		}
	}
	if want, got := aloneReg.Snapshot(), rowReg.Snapshot(); !reflect.DeepEqual(want, got) {
		t.Errorf("row published different metrics\nalone: %+v\nrow:   %+v", want, got)
	}
	var sum time.Duration
	for _, d := range times {
		if d <= 0 {
			t.Errorf("job time %v, want positive", d)
		}
		sum += d
	}
	if sum > wall || sum < wall-wall/20 {
		t.Errorf("job times sum to %v, row wall time %v (want within 5%%)", sum, wall)
	}
}

// TestExecuteRowErrors: an invalid configuration is reported, naming it,
// before anything runs; a cancelled context stops the row.
func TestExecuteRowErrors(t *testing.T) {
	b, _ := workload.ByName("li")
	bad := sim.Baseline()
	bad.WB.Depth = 0
	_, _, err := ExecuteRow(context.Background(), b, []string{"ok", "bad"},
		[]sim.Config{sim.Baseline(), bad}, 10_000, nil)
	if err == nil || !strings.Contains(err.Error(), `"bad"`) {
		t.Errorf("invalid config: err = %v, want one naming \"bad\"", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ExecuteRow(ctx, b, []string{"a"}, []sim.Config{sim.Baseline()}, 10_000, nil); err != context.Canceled {
		t.Errorf("cancelled row: err = %v, want context.Canceled", err)
	}
}

// TestExecuteRowCancelStopsGenerator: a cancelled row must not strand a
// kernel benchmark's producer goroutine parked on its channel send.
func TestExecuteRowCancelStopsGenerator(t *testing.T) {
	fft, _ := workload.ByName("fft")
	espresso, _ := workload.ByName("espresso")
	// A derived stream hides the kernel's generator behind combinators;
	// closing the row must still reach it.
	mix := workload.Derive("espresso+fft / 1000", func(n uint64) trace.Generator {
		return trace.GeneratorOf(trace.NewInterleave(1000, espresso.Stream(n/2), fft.Stream(n/2)))
	})
	for _, b := range []workload.Benchmark{fft, mix} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for i := 0; i < 20; i++ {
			if _, _, err := ExecuteRow(ctx, b, []string{"a"}, []sim.Config{sim.Baseline()}, 1_000_000, nil); err != context.Canceled {
				t.Fatalf("cancelled %s row: err = %v, want context.Canceled", b.Name, err)
			}
		}
		if !goroutinesSettle(before) {
			t.Errorf("%d goroutines after 20 cancelled %s rows, %d before", runtime.NumGoroutine(), b.Name, before)
		}
	}
}
