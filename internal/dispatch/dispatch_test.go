package dispatch

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// wireConfigs is a spread of machines covering every Config field class:
// baseline, finite L2, write cache, superscalar + narrow datapath, aging
// and fixed-rate and eager retirement, I-cache extension.
func wireConfigs() map[string]sim.Config {
	withI := sim.Baseline()
	withI.IMissRate = 0.02
	withI.ISeed = 42
	withI.ChargeWriteMissFetch = true
	narrow := sim.Baseline().WithIssueWidth(4)
	narrow.WriteTransferCycles = 2
	narrow.WriteThreshold = 3
	return map[string]sim.Config{
		"baseline":   sim.Baseline(),
		"deep-rwb":   sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB),
		"finite-l2":  sim.Baseline().WithL2(512 << 10).WithMemLat(50),
		"writecache": sim.Baseline().WithWriteCache(8),
		"aging":      sim.Baseline().WithRetire(core.RetireAt{N: 2, Timeout: 256}),
		"fixed-rate": sim.Baseline().WithRetire(core.FixedRate{Interval: 6}),
		"eager":      sim.Baseline().WithRetire(core.Eager{}),
		"extensions": withI,
		"narrow":     narrow,
	}
}

func TestWireRoundTrip(t *testing.T) {
	for name, cfg := range wireConfigs() {
		job := Job{Bench: "li", Label: name, Cfg: cfg, N: 123_456}
		w, err := encodeJob(job)
		if err != nil {
			t.Errorf("%s: encode: %v", name, err)
			continue
		}
		// Through JSON, as the remote backend ships it.
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var w2 wireJob
		if err := json.Unmarshal(b, &w2); err != nil {
			t.Fatal(err)
		}
		got, err := decodeJob(w2)
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, job) {
			t.Errorf("%s: round trip changed the job:\n got %+v\nwant %+v", name, got, job)
		}
	}
}

// customPolicy is a retirement policy with no registered machconf codec,
// so the wire format cannot express it.
type customPolicy struct{}

func (customPolicy) NextStart(occ int, headAlloc, lastStart, now uint64) (uint64, bool) {
	return now, occ > 0
}
func (customPolicy) Name() string { return "custom" }

func TestWireRejectsCustomPolicy(t *testing.T) {
	job := Job{Bench: "li", Cfg: sim.Baseline().WithRetire(customPolicy{}), N: 1000}
	if _, err := encodeJob(job); err == nil {
		t.Error("custom retirement policy unexpectedly encoded")
	}
	if _, _, err := StoreKey(job); err == nil {
		t.Error("custom retirement policy unexpectedly keyed")
	}
}

func TestJobKey(t *testing.T) {
	base := Job{Bench: "li", Label: "a", Cfg: sim.Baseline(), N: 100_000}
	k1, _, err := StoreKey(base)
	if err != nil {
		t.Fatal(err)
	}
	relabeled := base
	relabeled.Label = "completely different"
	if k2, _, _ := StoreKey(relabeled); k2 != k1 {
		t.Error("label changed the key; renamed sweeps would miss their stored results")
	}
	for name, mutate := range map[string]func(*Job){
		"bench": func(j *Job) { j.Bench = "compress" },
		"n":     func(j *Job) { j.N = 200_000 },
		"depth": func(j *Job) { j.Cfg = j.Cfg.WithDepth(12) },
		"haz":   func(j *Job) { j.Cfg = j.Cfg.WithHazard(core.ReadFromWB) },
	} {
		j := base
		mutate(&j)
		if k2, _, _ := StoreKey(j); k2 == k1 {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// TestLocalMatchesExecute resolves a suite benchmark and both Table 6
// transformed variants by name: Local.Run and Execute must equal a
// one-configuration ExecuteRow on the benchmark value itself.
func TestLocalMatchesExecute(t *testing.T) {
	for _, b := range []workload.Benchmark{
		mustBenchmark(t, "compress"), transformed(t, "gmtry-t"), transformed(t, "cholsky-t"),
	} {
		job := Job{Bench: b.Name, Label: "base", Cfg: sim.Baseline(), N: 50_000}
		row, _, err := ExecuteRow(context.Background(), b, []string{job.Label}, []sim.Config{job.Cfg}, job.N, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := row[0]
		exec, err := Execute(job, nil)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		got, err := (&Local{}).Run(context.Background(), job)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if exec != want || got != want {
			t.Errorf("%s: Execute = %+v, Local.Run = %+v, want %+v", b.Name, exec, got, want)
		}
	}
}

func mustBenchmark(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q not registered", name)
	}
	return b
}

// transformed finds a Table 6 variant by scanning workload.Transformed, not
// through ByName, so the test pins name resolution against the list.
func transformed(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	for _, b := range workload.Transformed() {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("no transformed variant %q", name)
	return workload.Benchmark{}
}

func TestLocalErrors(t *testing.T) {
	if _, err := (&Local{}).Run(context.Background(), Job{Bench: "nosuch", Cfg: sim.Baseline(), N: 1000}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	bad := sim.Baseline().WithDepth(-1)
	if _, err := (&Local{}).Run(context.Background(), Job{Bench: "li", Cfg: bad, N: 1000}); err == nil {
		t.Error("invalid configuration accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Local{}).Run(ctx, Job{Bench: "li", Cfg: sim.Baseline(), N: 1000}); err == nil {
		t.Error("cancelled context not honoured")
	}
}

func TestWorkerHandlerStatuses(t *testing.T) {
	ts := httptest.NewServer(WorkerHandler(nil))
	defer ts.Close()

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/job", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	mustWire := func(job Job) string {
		w, err := encodeJob(job)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if got := post(`{nonsense`); got != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", got)
	}
	unknown := mustWire(Job{Bench: "nosuch", Cfg: sim.Baseline(), N: 1000})
	if got := post(unknown); got != http.StatusBadRequest {
		t.Errorf("unknown benchmark: status %d, want 400", got)
	}
	invalid := mustWire(Job{Bench: "li", Cfg: sim.Baseline().WithDepth(-1), N: 1000})
	if got := post(invalid); got != http.StatusUnprocessableEntity {
		t.Errorf("invalid config: status %d, want 422", got)
	}
	good := mustWire(Job{Bench: "li", Cfg: sim.Baseline(), N: 10_000})
	if got := post(good); got != http.StatusOK {
		t.Errorf("good job: status %d, want 200", got)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
}
