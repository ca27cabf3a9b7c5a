package experiment

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/metrics"
)

// gatedBackend completes a fixed number of jobs, then parks every further
// Run on its context — a sweep frozen mid-flight, waiting to be
// cancelled.
type gatedBackend struct {
	tokens chan struct{}
	parked sync.Once
	Parked chan struct{} // closed when the first Run blocks
	local  dispatch.Local
}

func newGatedBackend(completions int) *gatedBackend {
	g := &gatedBackend{
		tokens: make(chan struct{}, completions),
		Parked: make(chan struct{}),
	}
	for i := 0; i < completions; i++ {
		g.tokens <- struct{}{}
	}
	return g
}

func (g *gatedBackend) Run(ctx context.Context, job dispatch.Job) (dispatch.Measurement, error) {
	select {
	case <-g.tokens:
	default:
		g.parked.Do(func() { close(g.Parked) })
		<-ctx.Done()
		return dispatch.Measurement{}, ctx.Err()
	}
	return g.local.Run(ctx, job)
}

func (g *gatedBackend) Concurrency() int { return 4 }

// Cancelling a store-backed sweep mid-flight must stop RunMatrixCtx
// promptly with the cancellation error, leave the finished jobs in the
// store, and let a rerun complete executing only the remainder —
// cancellation loses time, never work.
func TestMatrixCancelLeavesResumableCheckpoint(t *testing.T) {
	benches, specs := paritySuite(t)
	const n = 30_000
	const completions = 2
	total := len(benches) * len(specs)
	dir := t.TempDir()

	reg := metrics.NewRegistry()
	gated := newGatedBackend(completions)
	backend := dispatch.NewCached(gated, openStore(t, dir, reg), nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// Cancel only after the finished jobs are stored and a further job
		// is parked, so the store's content is deterministic.
		<-gated.Parked
		writes := reg.Counter("resultstore_writes_total")
		for writes.Value() < completions {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	start := time.Now()
	_, err := RunMatrixCtx(ctx, benches, specs, Options{Instructions: n, Backend: backend})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	// RunMatrixCtx may wrap the backend error; the cancellation must stay
	// visible either way.
	if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error %q does not surface the cancellation", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancelled sweep took %v to stop", elapsed)
	}

	// Resume: only the unstored jobs may execute.
	st := openStore(t, dir, nil)
	if stored := storedJobs(st); stored != completions {
		t.Fatalf("store holds %d jobs after cancellation, want %d", stored, completions)
	}
	inner := &countingLocal{}
	resumed, err := RunMatrixCtx(context.Background(), benches, specs,
		Options{Instructions: n, Backend: dispatch.NewCached(inner, st, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inner.count(), total-completions; got != want {
		t.Errorf("resumed run executed %d jobs, want %d", got, want)
	}
	if local := mustMatrix(t, benches, specs, Options{Instructions: n}); !reflect.DeepEqual(local, resumed) {
		t.Error("resumed matrix differs from a pure local run")
	}
}
