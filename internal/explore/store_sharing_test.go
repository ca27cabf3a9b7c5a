package explore

import (
	"context"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestStoreSharesAcrossProcesses is the cross-binary acceptance check for
// the shared result store: a wbexp-style matrix sweep pays for a set of
// simulations, the backend is torn down (the "process exit"), and a fresh
// backend over the same store directory — wbopt re-running the same space
// — answers an exhaustive grid search with zero dispatched simulations,
// asserted from the dispatch_store_misses_total series.
func TestStoreSharesAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	space := &Space{Depths: []int{2, 4, 8}, Retires: []int{1, 2}}
	cands, err := space.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	li, _ := workload.ByName("li")
	fft, _ := workload.ByName("fft")
	benches := []workload.Benchmark{li, fft}
	const n = 20_000

	// "Process one": wbexp sweeps the space's configurations as a custom
	// matrix through a store-backed backend (the -store flag's stack).
	reg1 := metrics.NewRegistry()
	b1, close1, err := dispatch.BuildBackendOpts(dispatch.BuildOptions{Store: dir, Metrics: reg1})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]experiment.ConfigSpec, len(cands))
	for i, c := range cands {
		specs[i] = experiment.ConfigSpec{Label: c.Label, Cfg: c.Cfg}
	}
	if _, err := experiment.RunMatrixCtx(context.Background(), benches, specs, experiment.Options{
		Instructions: n, Backend: b1, Metrics: reg1,
	}); err != nil {
		t.Fatal(err)
	}
	close1()
	wantJobs := uint64(len(cands) * len(benches))
	if got := reg1.Counter("dispatch_store_misses_total").Value(); got != wantJobs {
		t.Fatalf("first process dispatched %d simulations, want %d (empty store)", got, wantJobs)
	}

	// "Process two": wbopt searches the same space with a fresh backend
	// over the same directory.  Every grid evaluation is a store hit.
	reg2 := metrics.NewRegistry()
	b2, close2, err := dispatch.BuildBackendOpts(dispatch.BuildOptions{Store: dir, Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer close2()
	res, err := Grid{}.Search(context.Background(), space, Env{
		Benches: benches, N: n, Seed: 1, Backend: b2, Metrics: reg2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg2.Counter("dispatch_store_misses_total").Value(); got != 0 {
		t.Errorf("second process dispatched %d simulations, want 0", got)
	}
	if got := reg2.Counter("dispatch_store_hits_total").Value(); got != wantJobs {
		t.Errorf("second process store hits = %d, want %d", got, wantJobs)
	}
	// The store-fed search is still a complete, correct result.
	if len(res.Evaluated) != len(cands) || res.SimsRun != len(cands)*len(benches) {
		t.Fatalf("store-fed grid: evaluated=%d sims=%d, want %d/%d",
			len(res.Evaluated), res.SimsRun, len(cands), len(cands)*len(benches))
	}
	if len(res.Frontier) == 0 {
		t.Error("store-fed grid produced an empty frontier")
	}
}
