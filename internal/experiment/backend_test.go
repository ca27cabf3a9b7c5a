package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/machconf"
	"repro/internal/metrics"
	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/workload"
)

func paritySuite(t *testing.T) ([]workload.Benchmark, []ConfigSpec) {
	t.Helper()
	var benches []workload.Benchmark
	for _, name := range []string{"li", "compress"} {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("benchmark %q not registered", name)
		}
		benches = append(benches, b)
	}
	specs := []ConfigSpec{
		{Label: "base", Cfg: sim.Baseline()},
		{Label: "deep+lazy+readWB", Cfg: sim.Baseline().WithDepth(12).
			WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB)},
	}
	return benches, specs
}

// The whole distributed design rests on this: the same matrix through the
// local path and through a Remote backend over a real worker HTTP surface
// must produce bit-identical measurements.
func TestLocalRemoteParity(t *testing.T) {
	benches, specs := paritySuite(t)
	const n = 50_000

	local := mustMatrix(t, benches, specs, Options{Instructions: n})

	ts := httptest.NewServer(dispatch.WorkerHandler(nil))
	defer ts.Close()
	rem, err := dispatch.NewRemote([]string{ts.URL}, dispatch.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	remote, err := RunMatrixCtx(context.Background(), benches, specs,
		Options{Instructions: n, Backend: rem})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(local, remote) {
		t.Errorf("local and remote matrices differ:\nlocal  %+v\nremote %+v", local, remote)
	}
}

// phasedRetire is a custom retirement policy outside the built-in wire
// families: even windows retire at Eager, odd windows at Lazy.
type phasedRetire struct {
	Window uint64
	Eager  int
	Lazy   int
}

func (p phasedRetire) NextStart(occ int, headAlloc, lastStart, now uint64) (uint64, bool) {
	hwm := p.Eager
	if (now/p.Window)%2 == 1 {
		hwm = p.Lazy
	}
	if occ >= hwm {
		return now, true
	}
	return 0, false
}
func (p phasedRetire) Name() string { return "phased-test" }

var registerPhasedOnce sync.Once

func registerPhased() {
	registerPhasedOnce.Do(func() {
		machconf.RegisterRetirement(machconf.RetirementCodec{
			Kind: "phased-test",
			Encode: func(p core.RetirementPolicy) (any, bool) {
				ph, ok := p.(phasedRetire)
				if !ok {
					return nil, false
				}
				return map[string]any{"window": ph.Window, "eager": ph.Eager, "lazy": ph.Lazy}, true
			},
			Decode: func(raw json.RawMessage) (core.RetirementPolicy, error) {
				var params struct {
					Window uint64 `json:"window"`
					Eager  int    `json:"eager"`
					Lazy   int    `json:"lazy"`
				}
				if err := json.Unmarshal(raw, &params); err != nil {
					return nil, err
				}
				return phasedRetire{Window: params.Window, Eager: params.Eager, Lazy: params.Lazy}, nil
			},
		})
	})
}

// A custom policy registered with the machconf registry is a first-class
// citizen of the distributed path: the same sweep through the local runner
// and through a Remote backend over a real worker HTTP surface must agree
// bit for bit.  Before the registry this configuration could not even be
// encoded for the wire.
func TestLocalRemoteParityCustomPolicy(t *testing.T) {
	registerPhased()
	benches, _ := paritySuite(t)
	specs := []ConfigSpec{{
		Label: "phased",
		Cfg: sim.Baseline().WithDepth(12).
			WithRetire(phasedRetire{Window: 4096, Eager: 2, Lazy: 8}).
			WithHazard(core.ReadFromWB),
	}}
	const n = 50_000

	canon, err := specs[0].Canonical()
	if err != nil {
		t.Fatalf("custom-policy spec has no canonical form: %v", err)
	}
	if !strings.Contains(string(canon), `"kind":"phased-test"`) {
		t.Fatalf("canonical form does not carry the registered kind: %s", canon)
	}
	if h, err := specs[0].Hash(); err != nil || len(h) != 64 {
		t.Fatalf("custom-policy spec hash = %q, %v", h, err)
	}

	local := mustMatrix(t, benches, specs, Options{Instructions: n})

	ts := httptest.NewServer(dispatch.WorkerHandler(nil))
	defer ts.Close()
	rem, err := dispatch.NewRemote([]string{ts.URL}, dispatch.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	remote, err := RunMatrixCtx(context.Background(), benches, specs,
		Options{Instructions: n, Backend: rem})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(local, remote) {
		t.Errorf("custom-policy local and remote matrices differ:\nlocal  %+v\nremote %+v", local, remote)
	}
}

// countingLocal executes jobs in-process, counting them; failAfter > 0
// makes every run past that count fail, simulating a dying worker pool
// partway through a sweep.
type countingLocal struct {
	mu        sync.Mutex
	runs      int
	failAfter int
	benches   []string
	local     dispatch.Local
}

func (c *countingLocal) Run(ctx context.Context, job dispatch.Job) (dispatch.Measurement, error) {
	c.mu.Lock()
	c.runs++
	c.benches = append(c.benches, job.Bench)
	fail := c.failAfter > 0 && c.runs > c.failAfter
	c.mu.Unlock()
	if fail {
		return dispatch.Measurement{}, errors.New("scripted backend failure")
	}
	return c.local.Run(ctx, job)
}

func (c *countingLocal) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

// names lists the benchmark of every job run so far.
func (c *countingLocal) names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.benches...)
}

// openStore opens the result store rooted at dir, as a fresh process
// would, counting its writes in reg (which may be nil).
func openStore(t *testing.T, dir string, reg *metrics.Registry) *resultstore.Store {
	t.Helper()
	st, err := resultstore.Open(dir, resultstore.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storedJobs counts the results on the store's disk tier.
func storedJobs(st *resultstore.Store) int {
	n, _, _ := st.Stats()
	return n
}

// Kill a store-backed sweep midway (the backend starts failing), rerun it
// over the same store: the rerun executes only the jobs the first run did
// not store, records each of them once, and the final matrix matches a
// pure local run.
func TestMatrixCheckpointResume(t *testing.T) {
	benches, specs := paritySuite(t)
	const n = 30_000
	total := len(benches) * len(specs)
	dir := t.TempDir()

	// First run: the inner backend dies after 2 jobs; the sweep must fail.
	inner1 := &countingLocal{failAfter: 2}
	_, err := RunMatrixCtx(context.Background(), benches, specs,
		Options{Instructions: n, Backend: dispatch.NewCached(inner1, openStore(t, dir, nil), nil)})
	if err == nil {
		t.Fatal("sweep succeeded despite a failing backend")
	}

	// Resumed run over the same store with a healthy backend.
	reg := metrics.NewRegistry()
	st := openStore(t, dir, reg)
	stored := storedJobs(st)
	if stored == 0 || stored >= total {
		t.Fatalf("first run stored %d of %d jobs; expected a partial sweep", stored, total)
	}
	inner2 := &countingLocal{}
	resumed, err := RunMatrixCtx(context.Background(), benches, specs,
		Options{Instructions: n, Backend: dispatch.NewCached(inner2, st, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inner2.count(), total-stored; got != want {
		t.Errorf("resumed run executed %d jobs, want %d (store already held %d)",
			got, want, stored)
	}
	if got, want := reg.Counter("resultstore_writes_total").Value(), uint64(total-stored); got != want {
		t.Errorf("resumed run wrote %d results, want %d (one per missing job)", got, want)
	}
	if got := storedJobs(st); got != total {
		t.Errorf("store holds %d results after the resume, want %d", got, total)
	}
	if local := mustMatrix(t, benches, specs, Options{Instructions: n}); !reflect.DeepEqual(local, resumed) {
		t.Errorf("resumed matrix differs from a pure local run:\nlocal   %+v\nresumed %+v", local, resumed)
	}
}

// A backend failure must surface as an error from RunMatrixCtx and from
// a registered experiment's Run, with a nil report and no panic.
func TestMatrixBackendErrorSurfacing(t *testing.T) {
	benches, specs := paritySuite(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "scripted failure", http.StatusInternalServerError)
	}))
	defer ts.Close()
	rem, err := dispatch.NewRemote([]string{ts.URL}, dispatch.RemoteOptions{
		BaseBackoff: 1, MaxBackoff: 2, MaxRetries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	o := Options{Instructions: 10_000, Backend: rem, Benchmarks: benches}

	if _, err := RunMatrixCtx(context.Background(), benches, specs, o); err == nil {
		t.Error("RunMatrixCtx returned no error from an all-failing pool")
	}

	fig4, ok := ByID("fig4")
	if !ok {
		t.Fatal("fig4 not registered")
	}
	rep, err := fig4.Run(context.Background(), o)
	if rep != nil {
		t.Errorf("fig4 over an all-failing pool returned a report:\n%s", rep)
	}
	if err == nil || !strings.Contains(err.Error(), "failed after") {
		t.Errorf("fig4 error = %v, want the pool's exhausted-retries failure", err)
	}
}

// A cancelled context must abort the sweep with the context's error.
func TestMatrixContextCancel(t *testing.T) {
	benches, specs := paritySuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunMatrixCtx(ctx, benches, specs,
		Options{Instructions: 10_000, Backend: &dispatch.Local{}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// The harness must size its worker pool from the backend's Concurrency
// hint: a hint of 1 serialises the jobs.
func TestMatrixHonoursConcurrencyHint(t *testing.T) {
	benches, specs := paritySuite(t)
	b := &serialProbe{}
	if _, err := RunMatrixCtx(context.Background(), benches, specs,
		Options{Instructions: 5_000, Backend: b}); err != nil {
		t.Fatal(err)
	}
	if b.maxInflight() != 1 {
		t.Errorf("max in-flight jobs = %d, want 1 under a Concurrency()=1 hint", b.maxInflight())
	}
}

// serialProbe is a backend reporting Concurrency 1 and recording the
// maximum number of concurrent Run calls it observed.
type serialProbe struct {
	mu       sync.Mutex
	inflight int
	max      int
	local    dispatch.Local
}

func (s *serialProbe) Concurrency() int { return 1 }

func (s *serialProbe) Run(ctx context.Context, job dispatch.Job) (dispatch.Measurement, error) {
	s.mu.Lock()
	s.inflight++
	if s.inflight > s.max {
		s.max = s.inflight
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
	}()
	return s.local.Run(ctx, job)
}

func (s *serialProbe) maxInflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}

// A backend runs a benchmark by its name alone, so a stream whose name is
// not the canonical spelling of its derivation is refused with
// ErrUnknownBenchmark rather than run as whatever the name resolves to;
// the canonical name of the same stream runs.
func TestBackendRefusesDerivedBenchmark(t *testing.T) {
	rb := bench(t, "li~s1")
	specs := []ConfigSpec{{Label: "base", Cfg: sim.Baseline()}}
	o := Options{Instructions: 10_000, Backend: &dispatch.Local{}}
	if _, err := RunMatrixCtx(context.Background(), []workload.Benchmark{rb}, specs, o); err != nil {
		t.Fatalf("canonical %q: %v", rb.Name, err)
	}
	rb.Name = "li~s01"
	_, err := RunMatrixCtx(context.Background(), []workload.Benchmark{rb}, specs, o)
	if !errors.Is(err, dispatch.ErrUnknownBenchmark) {
		t.Fatalf("err = %v, want dispatch.ErrUnknownBenchmark", err)
	}
}

// The experiments over derived streams run through any backend, because
// a derived stream's name is its identity: through Local and through a
// store-backed Cached(Local) they render the in-process report byte for
// byte, and a rerun over the same store is all hits.  The names they ship
// are derived, never registered ones, and a non-canonical spelling of one
// is an unknown benchmark.
func TestDerivedStreamsRunThroughBackends(t *testing.T) {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	st, err := resultstore.Open("", resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingLocal{}
	cached := dispatch.NewCached(inner, st, reg)
	misses := reg.Counter("dispatch_store_misses_total")
	for _, id := range []string{"ext-membar", "ext-multiprog", "ext-variance"} {
		e, _ := ByID(id)
		render := func(b dispatch.Backend) string {
			t.Helper()
			rep, err := e.Run(ctx, Options{
				Instructions: 20_000,
				Benchmarks:   []workload.Benchmark{bench(t, "espresso"), bench(t, "li"), bench(t, "fft")},
				Backend:      b,
			})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			return rep.String()
		}
		want := render(nil)
		if got := render(&dispatch.Local{}); got != want {
			t.Errorf("%s through Local:\n%s\nin-process:\n%s", id, got, want)
		}
		before := misses.Value()
		if got := render(cached); got != want || misses.Value() == before {
			t.Errorf("%s through Cached(Local), %d misses:\n%s\nin-process:\n%s", id, misses.Value()-before, got, want)
		}
		before, ran := misses.Value(), inner.count()
		if got := render(cached); got != want || misses.Value() != before || inner.count() != ran {
			t.Errorf("%s rerun over the same store: %d misses, %d jobs run, report equal %v",
				id, misses.Value()-before, inner.count()-ran, got == want)
		}
	}
	for _, name := range inner.names() {
		if _, ok := workload.ByName(name); !ok || isRegistered(name) {
			t.Errorf("experiment shipped %q: resolves %v, registered %v", name, ok, isRegistered(name))
		}
	}
	for _, name := range []string{"li /1000", "li / 01000", "li / 0", "li~s01", "fft~s1"} {
		_, err := (&dispatch.Local{}).Run(ctx, dispatch.Job{Bench: name, Label: "base", Cfg: sim.Baseline(), N: 1_000})
		if !errors.Is(err, dispatch.ErrUnknownBenchmark) {
			t.Errorf("%q: err = %v, want dispatch.ErrUnknownBenchmark", name, err)
		}
	}
}

func isRegistered(name string) bool {
	for _, list := range [][]workload.Benchmark{workload.All(), workload.Transformed(), workload.Scenarios()} {
		for _, b := range list {
			if b.Name == name {
				return true
			}
		}
	}
	return false
}
