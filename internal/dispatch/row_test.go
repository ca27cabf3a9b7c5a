package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestExecuteRowMatchesAlone runs every wire config in one row: each
// Measurement equals its one-configuration row's, the published sim_*
// series equal the single jobs' combined, and the job times sum to the
// row's wall time.
func TestExecuteRowMatchesAlone(t *testing.T) {
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
	got, times, err := ExecuteRow(context.Background(), b, labels, cfgs, n, rowReg, nil)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for i, label := range labels {
		alone, _, err := ExecuteRow(context.Background(), b, []string{label}, cfgs[i:i+1], n, aloneReg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := alone[0]; !reflect.DeepEqual(want, got[i]) {
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
		[]sim.Config{sim.Baseline(), bad}, 10_000, nil, nil)
	if err == nil || !strings.Contains(err.Error(), `"bad"`) {
		t.Errorf("invalid config: err = %v, want one naming \"bad\"", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ExecuteRow(ctx, b, []string{"a"}, []sim.Config{sim.Baseline()}, 10_000, nil, nil); err != context.Canceled {
		t.Errorf("cancelled row: err = %v, want context.Canceled", err)
	}
}

// TestExecuteRowCancelStopsGenerator: a cancelled row must not strand a
// kernel benchmark's producer goroutine parked on its channel send.
func TestExecuteRowCancelStopsGenerator(t *testing.T) {
	fft, _ := workload.ByName("fft")
	// A derived stream hides the kernel's generator behind combinators;
	// closing the row must still reach it.
	mix, _ := workload.ByName("espresso+fft / 1000")
	for _, b := range []workload.Benchmark{fft, mix} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for i := 0; i < 20; i++ {
			if _, _, err := ExecuteRow(ctx, b, []string{"a"}, []sim.Config{sim.Baseline()}, 1_000_000, nil, nil); err != context.Canceled {
				t.Fatalf("cancelled %s row: err = %v, want context.Canceled", b.Name, err)
			}
		}
		if !goroutinesSettle(before) {
			t.Errorf("%d goroutines after 20 cancelled %s rows, %d before", runtime.NumGoroutine(), b.Name, before)
		}
	}
}

// rowJobs builds one job per wire config over the same benchmark and n,
// sorted by label.
func rowJobs(bench string, n uint64) []Job {
	var jobs []Job
	for label, cfg := range wireConfigs() {
		jobs = append(jobs, Job{Bench: bench, Label: label, Cfg: cfg, N: n})
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Label < jobs[j].Label })
	return jobs
}

// TestCachedRunRow: a row through Cached(Local) equals the jobs run alone,
// stores each miss label-stripped before it returns, counts one miss per
// job, answers a repeat from the store, and attributes host times that sum
// to the call's wall time.
func TestCachedRunRow(t *testing.T) {
	const n = 200_000
	jobs := rowJobs("compress", n)
	reg := metrics.NewRegistry()
	store := openStore(t, "", nil)
	cached := NewCached(&Local{}, store, reg)

	start := time.Now()
	got := cached.RunRow(context.Background(), jobs)
	wall := time.Since(start)
	var sum time.Duration
	for i, job := range jobs {
		want, err := Execute(job, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Err != nil || got[i].M != want {
			t.Errorf("%s: row result %+v (err %v), want %+v", job.Label, got[i].M, got[i].Err, want)
		}
		key, _, _ := StoreKey(job)
		payload, ok := store.Get(key)
		want.Label = ""
		wantPayload, _ := json.Marshal(want)
		if !ok || !bytes.Equal(payload, wantPayload) {
			t.Errorf("%s: stored payload %s, want %s", job.Label, payload, wantPayload)
		}
		sum += got[i].Time
	}
	if sum > wall || sum < wall-wall/20 {
		t.Errorf("job times sum to %v, call wall time %v (want within 5%%)", sum, wall)
	}
	if misses := reg.Counter("dispatch_store_misses_total").Value(); misses != uint64(len(jobs)) {
		t.Errorf("misses = %d, want %d", misses, len(jobs))
	}

	// A repeat under new labels is all hits and carries the new labels.
	for i := range jobs {
		jobs[i].Label += "-again"
	}
	for i, r := range cached.RunRow(context.Background(), jobs) {
		if r.Err != nil || r.M.Label != jobs[i].Label || r.M.C != got[i].M.C {
			t.Errorf("%s: repeat %+v (err %v)", jobs[i].Label, r.M, r.Err)
		}
	}
	if hits := reg.Counter("dispatch_store_hits_total").Value(); hits != uint64(len(jobs)) {
		t.Errorf("hits = %d, want %d", hits, len(jobs))
	}
}

// TestLocalRunRowLoneFailures: a row member with an invalid configuration,
// or outside the row's benchmark and length, fails on its own and its
// row-mates still run; an unknown benchmark fails the whole row.
func TestLocalRunRowLoneFailures(t *testing.T) {
	bad := sim.Baseline()
	bad.WB.Depth = 0
	jobs := []Job{
		{Bench: "li", Label: "ok", Cfg: sim.Baseline(), N: 20_000},
		{Bench: "li", Label: "bad", Cfg: bad, N: 20_000},
		{Bench: "li", Label: "other-n", Cfg: sim.Baseline(), N: 30_000},
	}
	got := (&Local{}).RunRow(context.Background(), jobs)
	want, err := Execute(jobs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Err != nil || got[0].M != want {
		t.Errorf("valid row-mate: %+v (err %v), want %+v", got[0].M, got[0].Err, want)
	}
	if got[1].Err == nil || !strings.Contains(got[1].Err.Error(), `"bad"`) {
		t.Errorf("invalid config: err = %v, want one naming \"bad\"", got[1].Err)
	}
	if got[2].Err == nil {
		t.Error("job of another length ran in the row")
	}
	jobs[0].Bench = "no-such-bench"
	for i, r := range (&Local{}).RunRow(context.Background(), jobs[:1]) {
		if !errors.Is(r.Err, ErrUnknownBenchmark) {
			t.Errorf("job %d: err = %v, want ErrUnknownBenchmark", i, r.Err)
		}
	}
}

// TestRunRowPerJobFallback: a backend without rows runs one Run per job,
// in order, each with its own time.
func TestRunRowPerJobFallback(t *testing.T) {
	counting := &execCounting{inner: &Local{}}
	jobs := []Job{
		{Bench: "li", Label: "a", Cfg: sim.Baseline(), N: 20_000},
		{Bench: "li", Label: "b", Cfg: sim.Baseline(), N: 20_000},
	}
	got := RunRow(context.Background(), counting, jobs)
	if counting.runs.Load() != 2 {
		t.Fatalf("Run called %d times, want 2", counting.runs.Load())
	}
	for i, r := range got {
		if r.Err != nil || r.M.Label != jobs[i].Label || r.Time <= 0 {
			t.Errorf("job %d: %+v time %v err %v", i, r.M, r.Time, r.Err)
		}
	}
}
