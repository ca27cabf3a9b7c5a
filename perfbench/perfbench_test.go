package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch"
)

func TestSchedulesAreDeterministicPerSeed(t *testing.T) {
	ops := func(s *schedule) []op {
		out := make([]op, 500)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	for _, mk := range []func(uint64, int) *schedule{newMixedSchedule, newSweepSchedule} {
		a, b := ops(mk(7, 0)), ops(mk(7, 0))
		if !reflect.DeepEqual(a, b) {
			t.Fatal("same seed and connection gave different schedules")
		}
		if reflect.DeepEqual(a, ops(mk(8, 0))) {
			t.Fatal("different seeds gave the same schedule")
		}
		if reflect.DeepEqual(a, ops(mk(7, 1))) {
			t.Fatal("two connections share one schedule")
		}
	}
	if !reflect.DeepEqual(sweepOrder(3, 95, 400), sweepOrder(3, 95, 400)) {
		t.Fatal("paper_sweep config order differs for one seed")
	}
	if reflect.DeepEqual(sweepOrder(3, 95, 400), sweepOrder(4, 95, 400)) {
		t.Fatal("paper_sweep config order ignores the seed")
	}
	if !reflect.DeepEqual(cfgOrder(3, 500), cfgOrder(3, 500)) {
		t.Fatal("serve_sweep machine order differs for one seed")
	}
}

func TestNewKeysAreDisjointAcrossConnections(t *testing.T) {
	cfgs := make([]servedConfig, 40)
	ks := newKeySpace(5, cfgs, 2)
	seen := map[int]bool{}
	for k := 0; k < 40*len(ks.benches)/2; k++ {
		for c := 0; c < 2; c++ {
			key, err := ks.newKey(c, k)
			if err != nil {
				t.Fatal(err)
			}
			if seen[key] {
				t.Fatalf("key %d drawn twice", key)
			}
			seen[key] = true
		}
	}
	if _, err := ks.newKey(0, 40*len(ks.benches)/2); err == nil {
		t.Fatal("an exhausted key space did not report it")
	}
}

func TestPercentilesNeedTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	for _, c := range []struct {
		q    float64
		need int
	}{{0.5, 20}, {0.9, 100}} {
		if _, err := quantile(xs(c.need-1), c.q); err == nil {
			t.Errorf("p%g taken from %d samples", c.q*100, c.need-1)
		}
		if _, err := quantile(xs(c.need), c.q); err != nil {
			t.Errorf("p%g refused %d samples: %v", c.q*100, c.need, err)
		}
	}
	l := &latencyStats{name: "x", samples: xs(99)}
	if _, _, err := l.percentiles(); err == nil {
		t.Error("a class of 99 samples reported a p90")
	}
	if v, _ := quantile(xs(101), 0.5); v != 50 {
		t.Errorf("median of 0..100 = %g", v)
	}
	before := map[string]float64{}
	after := map[string]float64{`h_bucket{le="1024"}`: 99}
	if _, _, err := histQuantile(before, after, "h", 0.9); err == nil {
		t.Error("histogram p90 taken from 99 samples")
	}
	after[`h_bucket{le="2048"}`] = 1
	if v, n, err := histQuantile(before, after, "h", 0.5); err != nil || n != 100 || v < 512 || v > 1024 {
		t.Errorf("histogram p50 = %g from %d samples, %v", v, n, err)
	}
}

func TestPerturbedMeasurementFailsDigest(t *testing.T) {
	st, err := setupSweep()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.loadGolden(); err != nil {
		t.Fatal(err)
	}
	si, bi := len(st.specs)-1, 3
	m, err := dispatch.Execute(dispatch.Job{Bench: st.benches[bi].Name, Label: st.specs[si].Label, Cfg: st.specs[si].Cfg, N: sweepN}, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := st.keys[si][bi]
	if err := st.gold.check(key, m); err != nil {
		t.Fatalf("unperturbed measurement: %v", err)
	}
	relabelled := m
	relabelled.Label = "another label"
	if err := st.gold.check(key, relabelled); err != nil {
		t.Fatalf("the label is presentation, yet it changed the digest: %v", err)
	}
	for name, perturb := range map[string]func(*dispatch.Measurement){
		"cycles":      func(m *dispatch.Measurement) { m.C.Cycles++ },
		"stall":       func(m *dispatch.Measurement) { m.C.Stalls[1]++ },
		"retirements": func(m *dispatch.Measurement) { m.C.Retirements-- },
		"hit rate":    func(m *dispatch.Measurement) { m.WBHit += 1e-12 },
	} {
		p := m
		perturb(&p)
		if err := st.gold.check(key, p); err == nil {
			t.Errorf("perturbed %s passed the digest check", name)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{id: 1, name: "job", start: 0, end: 100},
		{id: 2, parent: 1, name: "fill", start: 10, end: 30},
		{id: 3, parent: 1, name: "fill", start: 20, end: 40},  // overlaps the first
		{id: 4, parent: 1, name: "fill", start: 90, end: 120}, // runs past the parent
	}
	got := selfTimes(spans)
	if j := got["job"]; j.total != 100 || j.own != 100-30-10 {
		t.Errorf("job: %+v", j)
	}
	if f := got["fill"]; f.count != 3 || f.total != 70 || f.own != 70 {
		t.Errorf("fill: %+v", f)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the names every run prints in step
// with the benchmark definition at the repository root.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	check := func(what string, declared []struct{ Name, Unit string }, want map[string]string) {
		got := map[string]string{}
		for _, m := range declared {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			var names []string
			for n := range want {
				names = append(names, n)
			}
			sort.Strings(names)
			t.Errorf("%s metrics in BENCHMARK.json differ from the program's: program has %s", what, strings.Join(names, ", "))
		}
	}
	check("end-to-end", def.EndToEnd, endToEndMetrics)
	check("per-layer", def.PerLayer, perLayerMetrics)
}

func TestMetricsCountOnlyTheCleanestSeconds(t *testing.T) {
	t0 := time.Unix(1000, 0)
	p := &phase{start: t0, want: 3, steal: []float64{0.30, 0.01, 0.02, 0.40, 0.00}}
	keep := p.kept()
	if want := []bool{false, true, true, false, true}; !reflect.DeepEqual(keep, want) {
		t.Fatalf("kept %v, want %v", keep, want)
	}
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	c := p.keptClass("x", keep, []timed{
		{at(1.1), at(1.3)}, // inside kept second 1
		{at(1.9), at(3.4)}, // starts in kept second 1, runs into stolen second 3
		{at(3.9), at(4.1)}, // starts in stolen second 3
		{at(5.5), at(5.6)}, // starts after the last sampled second
	})
	if got := c.samples; len(got) != 2 || math.Abs(got[0]-200) > 1e-6 || math.Abs(got[1]-1500) > 1e-6 {
		t.Fatalf("kept latencies %v", got)
	}
	if c.dropped != 2 {
		t.Fatalf("dropped %d samples, want 2", c.dropped)
	}
	if r := p.rate(keep, []float64{100, 10, 20, 100}); r != 10 {
		t.Fatalf("rate over kept seconds = %g, want the mean of 10, 20 and 0", r)
	}
	if xs := cleanReps([]rep{{1, true}, {5, false}, {2, true}}); !reflect.DeepEqual(xs, []float64{1, 2}) {
		t.Fatalf("clean set-up reps %v", xs)
	}
	if xs := cleanReps([]rep{{1, true}, {5, false}, {2, false}}); len(xs) != 3 {
		t.Fatalf("with most reps stolen, all should count: %v", xs)
	}
}
