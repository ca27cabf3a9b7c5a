package experiment

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestProgressCallbackContract pins the Options.Progress guarantees: for a
// B×C matrix the callback fires exactly B×C times, Done rises by exactly
// one per event from 1 to B×C, Total is constant, and every event carries
// a (bench, label) pair from the input axes.
func TestProgressCallbackContract(t *testing.T) {
	benches := []workload.Benchmark{bench(t, "espresso"), bench(t, "li"), bench(t, "compress")}
	specs := []ConfigSpec{
		{Label: "a", Cfg: sim.Baseline()},
		{Label: "b", Cfg: sim.Baseline().WithDepth(8)},
	}
	var events []ProgressEvent
	out := mustMatrix(t, benches, specs, Options{
		Instructions: 50_000,
		Progress:     func(ev ProgressEvent) { events = append(events, ev) },
	})
	want := len(benches) * len(specs)
	if len(events) != want {
		t.Fatalf("progress called %d times, want exactly %d", len(events), want)
	}
	validLabel := map[string]bool{"a": true, "b": true}
	validBench := map[string]bool{"espresso": true, "li": true, "compress": true}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Errorf("event %d: Done = %d, want %d (monotone, +1 per event)", i, ev.Done, i+1)
		}
		if ev.Total != want {
			t.Errorf("event %d: Total = %d, want %d", i, ev.Total, want)
		}
		if !validBench[ev.Bench] || !validLabel[ev.Label] {
			t.Errorf("event %d: unexpected job identity %s/%s", i, ev.Bench, ev.Label)
		}
		if ev.Instructions == 0 || ev.Cycles == 0 {
			t.Errorf("event %d: empty measurement (instr %d, cycles %d)",
				i, ev.Instructions, ev.Cycles)
		}
	}
	// The observed matrix must be complete despite callback overhead.
	for bi := range out {
		for ci := range out[bi] {
			if out[bi][ci].C.Instructions == 0 {
				t.Errorf("matrix[%d][%d] never ran", bi, ci)
			}
		}
	}
}

// TestRunMatrixOrderingUnderParallelism checks that parallel workers place
// every result at the index of its input pair — the [benchmark][config]
// contract — on a matrix large enough to keep all workers busy.
func TestRunMatrixOrderingUnderParallelism(t *testing.T) {
	benches := workload.All()[:6]
	specs := []ConfigSpec{
		{Label: "d2", Cfg: sim.Baseline().WithDepth(2)},
		{Label: "d4", Cfg: sim.Baseline()},
		{Label: "d8", Cfg: sim.Baseline().WithDepth(8)},
	}
	out := mustMatrix(t, benches, specs, Options{Instructions: 30_000})
	for bi, b := range benches {
		for ci, s := range specs {
			got := out[bi][ci]
			if got.Bench != b.Name || got.Label != s.Label {
				t.Errorf("matrix[%d][%d] holds %s/%s, want %s/%s",
					bi, ci, got.Bench, got.Label, b.Name, s.Label)
			}
		}
	}
}

// TestRunMatrixMetrics checks the throughput and simulator series a matrix
// run accumulates into Options.Metrics.
func TestRunMatrixMetrics(t *testing.T) {
	benches := []workload.Benchmark{bench(t, "espresso"), bench(t, "li")}
	specs := []ConfigSpec{{Label: "base", Cfg: sim.Baseline()}}
	reg := metrics.NewRegistry()
	out := mustMatrix(t, benches, specs, Options{Instructions: 50_000, Metrics: reg})
	if reg.Counter("experiment_jobs_total").Value() != 2 {
		t.Errorf("experiment_jobs_total = %d, want 2",
			reg.Counter("experiment_jobs_total").Value())
	}
	var wantInstr uint64
	for bi := range out {
		wantInstr += out[bi][0].C.Instructions
	}
	if got := reg.Counter("experiment_instructions_total").Value(); got != wantInstr {
		t.Errorf("experiment_instructions_total = %d, want %d", got, wantInstr)
	}
	if reg.Histogram("experiment_job_microseconds").Count() != 2 {
		t.Errorf("job wall-time histogram has %d observations, want 2",
			reg.Histogram("experiment_job_microseconds").Count())
	}
	if reg.Counter("sim_instructions_total").Value() != wantInstr {
		t.Errorf("sim_instructions_total = %d, want %d",
			reg.Counter("sim_instructions_total").Value(), wantInstr)
	}
	if reg.Counter("sim_stores_total").Value() == 0 {
		t.Error("sim_stores_total never incremented")
	}
	if reg.Histogram("sim_retirement_latency_cycles").Count() == 0 {
		t.Error("retirement-latency histogram is empty after a baseline run")
	}
}

// TestTrackerSeries drives the ETA/MIPS tracker directly — the series
// wbserve streams over SSE — and checks accumulation and extrapolation.
func TestTrackerSeries(t *testing.T) {
	var tr Tracker
	ev := ProgressEvent{
		Done: 1, Total: 4, Bench: "li", Label: "base",
		Instructions: 2_000_000, Cycles: 3_000_000,
		JobTime: 200 * time.Millisecond,
	}
	s := tr.Observe(ev)
	if s.Done != 1 || s.Total != 4 || s.Bench != "li" || s.Label != "base" {
		t.Errorf("snapshot identity %+v", s)
	}
	// Start is backdated by JobTime, so elapsed ≥ 200ms and MIPS ≈ 10.
	if s.Elapsed < 200*time.Millisecond {
		t.Errorf("elapsed %v < backdated job time", s.Elapsed)
	}
	if s.MIPS <= 0 || s.MIPS > 11 {
		t.Errorf("MIPS = %v, want ~10 (2e6 instr over ≥0.2s)", s.MIPS)
	}
	// 1 of 4 done: ETA ≈ 3× elapsed.
	if s.ETA < 2*s.Elapsed || s.ETA > 4*s.Elapsed {
		t.Errorf("ETA %v implausible for elapsed %v at 1/4 done", s.ETA, s.Elapsed)
	}
	ev.Done = 4
	ev.Instructions = 6_000_000
	s = tr.Observe(ev)
	if s.ETA != 0 {
		t.Errorf("ETA %v at completion, want 0", s.ETA)
	}
	if s.Instructions != 6_000_000 || s.Cycles != 3_000_000 {
		t.Errorf("snapshot counts %+v", s)
	}
}

// TestProgressReporterOutput drives the terminal reporter with synthetic
// events and checks the line discipline: carriage-return redraws, a final
// newline, and the headline fields.
func TestProgressReporterOutput(t *testing.T) {
	var sb strings.Builder
	report := ProgressReporter(&sb, "fig9")
	ev := ProgressEvent{
		Done: 1, Total: 2, Bench: "li", Label: "base",
		Instructions: 1_000_000, Cycles: 1_500_000,
		JobTime: 100 * time.Millisecond,
	}
	report(ev)
	ev.Done = 2
	ev.Bench = "fft"
	report(ev)
	out := sb.String()
	if strings.Count(out, "\r") != 2 {
		t.Errorf("want one carriage-return redraw per event, got %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("reporter did not finish the line at Done == Total: %q", out)
	}
	for _, want := range []string{"fig9", "[  1/2", "[  2/2", "50%", "100%", "MIPS", "li/base", "fft/base", "eta"} {
		if !strings.Contains(out, want) {
			t.Errorf("reporter output missing %q: %q", want, out)
		}
	}
}
