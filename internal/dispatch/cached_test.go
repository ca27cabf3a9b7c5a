package dispatch

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/resultstore"
	"repro/internal/sim"
)

// execCounting counts how many jobs actually execute.
type execCounting struct {
	inner Backend
	runs  atomic.Int64
}

func (c *execCounting) Run(ctx context.Context, job Job) (Measurement, error) {
	c.runs.Add(1)
	return c.inner.Run(ctx, job)
}

func openStore(t *testing.T, dir string, reg *metrics.Registry) *resultstore.Store {
	t.Helper()
	s, err := resultstore.Open(dir, resultstore.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A cached backend must simulate a job exactly once per store lifetime —
// including across a "process restart" (a fresh Cached over the same
// directory) — and must re-apply the requesting sweep's label.
func TestCachedRunsOncePerStore(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	counting := &execCounting{inner: &Local{}}
	cached := NewCached(counting, openStore(t, dir, nil), reg)

	job := Job{Bench: "li", Label: "first", Cfg: sim.Baseline(), N: 50_000}
	want, err := Execute(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cached.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("cached miss path differs from direct execution:\n got %+v\nwant %+v", got, want)
	}
	// Same machine, different label: must hit and carry the new label.
	job.Label = "renamed"
	got, err = cached.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "renamed" {
		t.Errorf("hit label = %q, want %q", got.Label, "renamed")
	}
	want.Label = "renamed"
	if got != want {
		t.Errorf("cached hit differs from execution:\n got %+v\nwant %+v", got, want)
	}
	if n := counting.runs.Load(); n != 1 {
		t.Fatalf("inner backend ran %d times, want 1", n)
	}
	if reg.Counter("dispatch_store_hits_total").Value() != 1 ||
		reg.Counter("dispatch_store_misses_total").Value() != 1 {
		t.Errorf("hit/miss accounting: hits %d misses %d, want 1/1",
			reg.Counter("dispatch_store_hits_total").Value(),
			reg.Counter("dispatch_store_misses_total").Value())
	}

	// "Restart": a new Cached over the same directory — the simulated
	// process boundary.  Zero further executions.
	reg2 := metrics.NewRegistry()
	counting2 := &execCounting{inner: &Local{}}
	cached2 := NewCached(counting2, openStore(t, dir, nil), reg2)
	got, err = cached2.Run(context.Background(), Job{Bench: "li", Label: "renamed", Cfg: sim.Baseline(), N: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("cross-restart hit differs from execution")
	}
	if counting2.runs.Load() != 0 {
		t.Fatalf("restarted process re-simulated a stored job")
	}
}

// failingKV is a store whose disk is gone: every Get misses, every Put is
// rejected.
type failingKV struct{}

func (failingKV) Get(string) ([]byte, bool)        { return nil, false }
func (failingKV) Put(string, string, []byte) error { return errors.New("injected: disk full") }

// A rejected store write must not lose the sweep: the measurement is in
// hand and returned with a nil error.  The store counts the failure, and
// the next request for the key misses and re-runs.
func TestCachedPutFailureReturnsMeasurement(t *testing.T) {
	cached := NewCached(&Local{}, failingKV{}, nil)
	job := Job{Bench: "li", Label: "nostore", Cfg: sim.Baseline(), N: 50_000}
	want, err := Execute(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cached.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("Run with a failing store returned err = %v, want nil", err)
	}
	if got != want {
		t.Errorf("measurement under a failing store differs from direct execution:\n got %+v\nwant %+v", got, want)
	}
}

// Distinct machines and distinct n must not collide in the store.
func TestCachedKeysDistinguishJobs(t *testing.T) {
	cached := NewCached(&Local{}, openStore(t, t.TempDir(), nil), nil)
	base := Job{Bench: "li", Cfg: sim.Baseline(), N: 50_000}
	deep := Job{Bench: "li", Cfg: sim.Baseline().WithDepth(12), N: 50_000}
	long := Job{Bench: "li", Cfg: sim.Baseline(), N: 60_000}
	mb, err := cached.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	md, err := cached.Run(context.Background(), deep)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := cached.Run(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	if mb.C == md.C || mb.C == ml.C {
		t.Error("distinct jobs returned identical counters — store keys collided")
	}
	wd, _ := Execute(deep, nil)
	if md != wd {
		t.Error("deep-machine measurement differs from direct execution")
	}
}

// The full CLI stack: BuildBackendOpts with a Store directory produces a
// backend that answers a repeated sweep without executing anything.
func TestBuildBackendWithStore(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	backend, cleanup, err := BuildBackendOpts(BuildOptions{Store: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	job := Job{Bench: "compress", Cfg: sim.Baseline(), N: 50_000}
	if _, err := backend.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}

	reg2 := metrics.NewRegistry()
	backend2, cleanup2, err := BuildBackendOpts(BuildOptions{Store: dir, Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup2()
	if _, err := backend2.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if n := reg2.Counter("dispatch_store_misses_total").Value(); n != 0 {
		t.Errorf("second process dispatched %d simulations, want 0", n)
	}
	if n := reg2.Counter("dispatch_store_hits_total").Value(); n != 1 {
		t.Errorf("second process store hits = %d, want 1", n)
	}
}

// A configuration with no canonical encoding has no store key; it must
// pass through to the inner backend unstored rather than failing.
func TestCachedUnkeyablePassthrough(t *testing.T) {
	counting := &execCounting{inner: &Local{}}
	cached := NewCached(counting, openStore(t, t.TempDir(), nil), nil)
	job := Job{Bench: "li", Cfg: sim.Baseline().WithRetire(customPolicy{}), N: 1000}
	for i := 0; i < 2; i++ {
		if _, err := cached.Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	if n := counting.runs.Load(); n != 2 {
		t.Errorf("unkeyable job executed %d times, want 2 (never stored)", n)
	}
}

// hinted is a backend with a dispatch-parallelism hint.
type hinted struct{ Local }

func (hinted) Concurrency() int { return 7 }

// Concurrency must forward the inner backend's hint when it has one.
func TestCachedForwardsConcurrency(t *testing.T) {
	store := openStore(t, t.TempDir(), nil)
	if got := NewCached(&Local{}, store, nil).Concurrency(); got != 0 {
		t.Errorf("Concurrency() over a hint-less backend = %d, want 0", got)
	}
	if got := NewCached(&hinted{}, store, nil).Concurrency(); got != 7 {
		t.Errorf("Concurrency() over a hinted backend = %d, want 7", got)
	}
}
