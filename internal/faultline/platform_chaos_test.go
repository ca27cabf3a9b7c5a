package faultline

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/jobqueue"
	"repro/internal/machconf"
	"repro/internal/metrics"
	"repro/internal/resultstore"
)

// The platform chaos contract extends the dispatch one: with the durable
// job queue in front and the shared result store behind — the full wbserve
// serving stack — every fault scenario must still produce byte-identical
// results, a kill mid-sweep must resume from the journal, and a second
// pass over the same store must dispatch zero simulations.

// chaosQueueJobs renders the chaos suite as queue jobs with their
// result-store keys, in matrix order.
func chaosQueueJobs(t *testing.T) []jobqueue.Job {
	t.Helper()
	benches, specs := chaosSuite(t)
	var jobs []jobqueue.Job
	for _, b := range benches {
		for _, s := range specs {
			hash, err := machconf.Hash(s.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := machconf.Encode(s.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, jobqueue.Job{
				Bench: b.Name, Label: s.Label, N: chaosN, Config: blob,
				Key: resultstore.Key(b.Name, chaosN, hash),
			})
		}
	}
	return jobs
}

// platformPump is the wbserve dispatcher loop in miniature: submit the
// chaos sweep to the queue (resuming any pre-existing journal first), then
// drain it through the backend, ending each job's flight with Done after
// its store write.  killAfter > 0 closes the queue after that many completions
// — the kill -9 — leaving the rest journalled but undone.  Returns how
// many jobs this "process" completed.
func platformPump(t *testing.T, backend dispatch.Backend, store *resultstore.Store, queuePath string, reg *metrics.Registry, killAfter int) int {
	t.Helper()
	storeHas := func(key string) bool { _, ok := store.Get(key); return ok }
	q, err := jobqueue.Open(queuePath, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	resumed := q.Resume(storeHas)
	queued, err := q.Submit(jobqueue.Run{ID: "chaos", Jobs: chaosQueueJobs(t)}, storeHas)
	if err != nil {
		t.Fatal(err)
	}
	remaining := int64(resumed + queued)
	if remaining == 0 {
		return 0
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var (
		left      atomic.Int64
		completed atomic.Int64
		wg        sync.WaitGroup
		errc      = make(chan error, 4)
	)
	left.Store(remaining)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				job, err := q.Dequeue(ctx)
				if err != nil {
					return // queue closed (drained or killed) or timeout
				}
				cfg, err := machconf.Decode(job.Config)
				if err == nil {
					_, err = backend.Run(ctx, dispatch.Job{Bench: job.Bench, Label: job.Label, Cfg: cfg, N: job.N})
				}
				if err != nil {
					errc <- err
					return
				}
				// Done ends the flight; the store is the record of the
				// result, and a job it lacks stays live and re-runs later.
				if err := q.Done(job.Key); err != nil {
					errc <- err
					return
				}
				done := completed.Add(1)
				if killAfter > 0 && done >= int64(killAfter) {
					q.Close() // the kill: unblock everyone, stop draining
					return
				}
				if left.Add(-1) == 0 {
					q.Close() // drained
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("platform pump: %v", err)
	default:
	}
	return int(completed.Load())
}

// matrixFromStore reassembles the sweep's [][]Measurement from the store,
// re-applying labels — what GET /run/{id} serves — for byte comparison
// against the fault-free local matrix.
func matrixFromStore(t *testing.T, store *resultstore.Store) []byte {
	t.Helper()
	benches, specs := chaosSuite(t)
	out := make([][]experiment.Measurement, len(benches))
	for bi, b := range benches {
		out[bi] = make([]experiment.Measurement, len(specs))
		for ci, s := range specs {
			hash, err := machconf.Hash(s.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			payload, ok := store.Get(resultstore.Key(b.Name, chaosN, hash))
			if !ok {
				t.Fatalf("store missing %s/%s after a completed sweep", b.Name, s.Label)
			}
			var m experiment.Measurement
			if err := json.Unmarshal(payload, &m); err != nil {
				t.Fatal(err)
			}
			m.Label = s.Label
			out[bi][ci] = m
		}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestChaosPlatformParity drives the chaos suite through the full platform
// stack — durable queue, Cached(Remote) backend, shared store — under every
// fault scenario, and asserts (1) byte-identical results versus the
// fault-free local run and (2) a second process over the same store
// dispatches zero simulations even with the faulty pool still behind it.
func TestChaosPlatformParity(t *testing.T) {
	want := localJSON(t)
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			pool := NewPool(sc, reg)
			opts := chaosOpts(reg)
			nWorkers := 3
			switch sc.Kind {
			case Partition:
				nWorkers = 4
				opts.QuarantineAfter = 1
				opts.ProbeInterval = time.Hour
			case Hang:
				opts.JobTimeout = 150 * time.Millisecond
			}
			addrs := startPool(t, pool, nWorkers)
			rem, err := dispatch.NewRemote(addrs, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rem.Close()

			dir := t.TempDir()
			store, err := resultstore.Open(dir+"/store", resultstore.Options{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			cached := dispatch.NewCached(rem, store, reg)
			if n := platformPump(t, cached, store, dir+"/queue.jsonl", reg, 0); n != chaosJobs {
				t.Fatalf("pump completed %d jobs, want %d", n, chaosJobs)
			}
			if got := matrixFromStore(t, store); !bytes.Equal(want, got) {
				t.Errorf("platform results under %s faults differ from fault-free run", sc.Name)
			}
			if pool.Injected() == 0 {
				t.Errorf("scenario %s injected nothing — the parity pass is vacuous", sc.Name)
			}

			// Second process: fresh store handle over the same directory,
			// same faulty pool.  Everything is already paid for.
			reg2 := metrics.NewRegistry()
			store2, err := resultstore.Open(dir+"/store", resultstore.Options{Metrics: reg2})
			if err != nil {
				t.Fatal(err)
			}
			cached2 := dispatch.NewCached(rem, store2, reg2)
			platformPump(t, cached2, store2, dir+"/queue2.jsonl", reg2, 0)
			if got := matrixFromStore(t, store2); !bytes.Equal(want, got) {
				t.Errorf("second-process results differ under %s", sc.Name)
			}
			if n := reg2.Counter("dispatch_store_misses_total").Value(); n != 0 {
				t.Errorf("second process dispatched %d simulations, want 0", n)
			}
		})
	}
}

// TestChaosPlatformKillResume kills the platform mid-sweep — queue closed
// after 3 of 8 completions, exactly what SIGKILL leaves behind — and
// restarts it over the same journal and store.  The resumed process must
// finish only the remainder and the assembled matrix must stay
// byte-identical.
func TestChaosPlatformKillResume(t *testing.T) {
	sc := Scenario{Name: "flaky-kill", Kind: Corrupt, Seed: 17, Rate: 0.3, MaxFaults: 6}
	reg := metrics.NewRegistry()
	pool := NewPool(sc, reg)
	addrs := startPool(t, pool, 3)
	rem, err := dispatch.NewRemote(addrs, chaosOpts(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	dir := t.TempDir()
	queuePath := dir + "/queue.jsonl"
	store, err := resultstore.Open(dir+"/store", resultstore.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	cached := dispatch.NewCached(rem, store, reg)
	first := platformPump(t, cached, store, queuePath, reg, 3)
	if first < 3 || first >= chaosJobs {
		t.Fatalf("first process completed %d jobs, want a mid-sweep kill (3..%d)", first, chaosJobs-1)
	}

	// The restart: fresh queue handle replays the journal, Resume re-queues
	// only the undone jobs, and the sweep completes.
	reg2 := metrics.NewRegistry()
	store2, err := resultstore.Open(dir+"/store", resultstore.Options{Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	cached2 := dispatch.NewCached(rem, store2, reg2)
	second := platformPump(t, cached2, store2, queuePath, reg2, 0)
	if first+second < chaosJobs {
		t.Fatalf("kill+resume completed %d+%d jobs, want >= %d", first, second, chaosJobs)
	}
	if got, want := matrixFromStore(t, store2), localJSON(t); !bytes.Equal(want, got) {
		t.Error("kill-and-resume matrix differs from the fault-free run")
	}
	// The resumed process paid only for what the first one had not stored.
	if n := reg2.Counter("dispatch_store_misses_total").Value(); n != uint64(second) {
		t.Errorf("resumed process dispatched %d simulations for %d completions", n, second)
	}
}
