package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/jobqueue"
	"repro/internal/machconf"
	"repro/internal/metrics"
	"repro/internal/resultstore"
	"repro/internal/sim"
)

// The dispatcher runs each dequeued group of queued jobs that share a
// benchmark and length as one row.  These tests force rows by holding the
// lone dispatcher in a gate while sweeps queue behind it.

// gate holds the first call through the dispatcher's backend until release
// is closed, so the jobs submitted meanwhile queue together, and records
// every call's wall time and results.
type gate struct {
	inner   dispatch.Backend
	entered chan struct{}
	release chan struct{}
	once    sync.Once

	mu    sync.Mutex
	calls []gateCall
}

type gateCall struct {
	wall    time.Duration
	results []dispatch.RowResult
}

func (g *gate) Run(ctx context.Context, job dispatch.Job) (dispatch.Measurement, error) {
	r := g.RunRow(ctx, []dispatch.Job{job})[0]
	return r.M, r.Err
}

func (g *gate) RunRow(ctx context.Context, jobs []dispatch.Job) []dispatch.RowResult {
	first := false
	g.once.Do(func() { first = true; close(g.entered) })
	if first {
		select {
		case <-g.release:
		case <-ctx.Done():
		}
	}
	start := time.Now()
	out := dispatch.RunRow(ctx, g.inner, jobs)
	wall := time.Since(start)
	g.mu.Lock()
	g.calls = append(g.calls, gateCall{wall, out})
	g.mu.Unlock()
	return out
}

// gatedServer starts a one-dispatcher server behind a gate and parks the
// dispatcher in it on a blocker job, so everything submitted before
// g.release closes queues up.
func gatedServer(t *testing.T) (*server, *httptest.Server, *gate) {
	t.Helper()
	g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	s, ts := testServerCfg(t, serverConfig{
		CacheSize: 64, MaxN: 5_000_000, Dispatchers: 1,
		testBackend: func(b dispatch.Backend) dispatch.Backend { g.inner = b; return g },
	})
	asyncRun(t, ts.URL, `{"bench":"espresso","n":20000,"async":true}`)
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the dispatcher never took the blocker job")
	}
	return s, ts, g
}

// asyncRun posts an async run and returns its id.
func asyncRun(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /run %s: status %d, want 202", body, resp.StatusCode)
	}
	return decodeRunView(t, resp.Body).ID
}

// waitSettled waits until every job of run id is done or failed in the
// registry — after the dispatcher observed and settled each of them.
func waitSettled(t *testing.T, s *server, id string) *runState {
	t.Helper()
	st, ok := s.runs.get(id)
	if !ok {
		t.Fatalf("run %s is not registered", id)
	}
	select {
	case <-st.finished:
	case <-time.After(30 * time.Second):
		t.Fatalf("run %s never settled", id)
	}
	return st
}

// TestRowStoredPayloadsMatchExecute: two sweeps of different machines over
// the same benchmarks run as rows of two, and every stored payload is
// byte-equal to the label-stripped JSON of dispatch.Execute.
func TestRowStoredPayloadsMatchExecute(t *testing.T) {
	s, ts, g := gatedServer(t)
	ids := []string{
		asyncRun(t, ts.URL, `{"benches":["li","compress"],"n":100000,"depth":6,"async":true}`),
		asyncRun(t, ts.URL, `{"benches":["li","compress"],"n":100000,"depth":12,"hazard":"read-from-WB","async":true}`),
	}
	close(g.release)
	for _, id := range ids {
		waitSettled(t, s, id)
		run, _ := s.queue.RunByID(id)
		for _, j := range run.Jobs {
			cfg, err := machconf.Decode(j.Config)
			if err != nil {
				t.Fatal(err)
			}
			want, err := dispatch.Execute(dispatch.Job{Bench: j.Bench, Cfg: cfg, N: j.N}, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantPayload, _ := json.Marshal(want)
			payload, ok := s.store.Get(j.Key)
			if !ok || !bytes.Equal(payload, wantPayload) {
				t.Errorf("%s %s: stored %s\nwant %s", j.Bench, j.Label, payload, wantPayload)
			}
		}
	}
	// The blocker ran alone; each benchmark's two jobs ran as one row.
	rows := s.reg.Histogram("wbserve_row_jobs")
	if rows.Count() != 3 || rows.Sum() != 5 {
		t.Errorf("wbserve_row_jobs count %d sum %d, want 3 rows holding 1+2+2 jobs", rows.Count(), rows.Sum())
	}
}

// TestRowJobTimesSumToRowWall: the per-job host times the dispatcher
// reports for a forced row of two are the row's attributed times, summing
// to within 5% of the row's wall time, not the wall time once per member.
func TestRowJobTimesSumToRowWall(t *testing.T) {
	s, ts, g := gatedServer(t)
	a := asyncRun(t, ts.URL, `{"bench":"li","n":1000000,"depth":6,"async":true}`)
	b := asyncRun(t, ts.URL, `{"bench":"li","n":1000000,"depth":12,"async":true}`)
	close(g.release)
	waitSettled(t, s, a)
	waitSettled(t, s, b)

	rows := s.reg.Histogram("wbserve_row_jobs")
	if rows.Count() != 2 || rows.Sum() != 3 {
		t.Fatalf("wbserve_row_jobs count %d sum %d, want the blocker alone and one row of 2", rows.Count(), rows.Sum())
	}
	g.mu.Lock()
	calls := g.calls
	g.mu.Unlock()
	if len(calls) != 2 || len(calls[1].results) != 2 {
		t.Fatalf("backend saw %d calls, want the blocker then one row of 2", len(calls))
	}
	blocker := uint64(calls[0].results[0].Time.Microseconds())
	observed := time.Duration(s.reg.Histogram("experiment_job_microseconds").Sum()-blocker) * time.Microsecond
	wall := calls[1].wall
	if observed > wall || observed < wall-wall/20 {
		t.Errorf("row jobs observed %v in all, row wall time %v (want within 5%%)", observed, wall)
	}
}

// TestRowMemberFailsAlone: row-mates whose config fails machconf.Decode or
// sim validation settle as failed on their own; the rest of the row
// finishes done.
func TestRowMemberFailsAlone(t *testing.T) {
	s, ts, g := gatedServer(t)
	const n = 50_000
	good := asyncRun(t, ts.URL, `{"bench":"li","n":50000,"async":true}`)

	invalid := sim.Baseline()
	invalid.WB.Depth = 0
	other := sim.Baseline()
	other.WB.Depth = 8
	var jobs []jobqueue.Job
	add := func(label string, blob []byte, hash string) {
		jobs = append(jobs, jobqueue.Job{
			Bench: "li", Label: label, N: n, Config: blob, Key: resultstore.Key("li", n, hash),
		})
	}
	add("undecodable", []byte(`{"not":"a machine"}`), "undecodable")
	for label, cfg := range map[string]sim.Config{"invalid": invalid, "other": other} {
		blob, err := machconf.Encode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hash, err := machconf.Hash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		add(label, blob, hash)
	}
	run := jobqueue.Run{ID: "row-with-bad-members", Jobs: jobs}
	st := s.runs.register(run, s.storeHas)
	if queued, err := s.queue.Submit(run, s.storeHas); err != nil || queued != 3 {
		t.Fatalf("Submit = %d, %v; want 3 queued", queued, err)
	}
	close(g.release)

	waitSettled(t, s, good)
	waitSettled(t, s, run.ID)
	if rows := s.reg.Histogram("wbserve_row_jobs"); rows.Count() != 2 || rows.Sum() != 5 {
		t.Errorf("wbserve_row_jobs count %d sum %d, want the blocker alone and one row of 4", rows.Count(), rows.Sum())
	}
	st.mu.Lock()
	for _, j := range jobs {
		wantFailed := j.Label != "other"
		if st.failed[j.Key] != wantFailed || st.done[j.Key] == wantFailed {
			t.Errorf("%s: failed=%v done=%v, want failed=%v", j.Label, st.failed[j.Key], st.done[j.Key], wantFailed)
		}
	}
	st.mu.Unlock()
	if v := waitComplete(t, ts, good); v.Done != 1 {
		t.Errorf("valid row-mate's run: done %d, want 1", v.Done)
	}
	if got := s.reg.Counter("wbserve_job_failures_total").Value(); got != 2 {
		t.Errorf("wbserve_job_failures_total = %d, want 2", got)
	}
}

// burst submits one run of k li jobs at n on machines of write-buffer
// depth 8, 9, …, queued at once, and returns it.
func burst(t *testing.T, s *server, id string, k int, n uint64) jobqueue.Run {
	t.Helper()
	run := jobqueue.Run{ID: id}
	for depth := 8; depth < 8+k; depth++ {
		cfg := sim.Baseline()
		cfg.WB.Depth = depth
		blob, err := machconf.Encode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hash, err := machconf.Hash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run.Jobs = append(run.Jobs, jobqueue.Job{
			Bench: "li", Label: fmt.Sprintf("depth-%d", depth), N: n, Config: blob, Key: resultstore.Key("li", n, hash),
		})
	}
	s.runs.register(run, s.storeHas)
	if queued, err := s.queue.Submit(run, s.storeHas); err != nil || queued != k {
		t.Fatalf("Submit = %d, %v; want %d queued", queued, err, k)
	}
	return run
}

// TestRowBurstSplitAcrossDispatchers: a burst of machines over one
// benchmark is split across the dispatchers instead of running as one row
// on one of them — each row takes at most its dispatcher's share of the
// backlog: 8 queued jobs over two dispatchers run as rows of 4, 2, 1, 1.
func TestRowBurstSplitAcrossDispatchers(t *testing.T) {
	s, _ := testServerCfg(t, serverConfig{CacheSize: 64, MaxN: 5_000_000, Dispatchers: 2})
	run := burst(t, s, "li-burst", 8, 50_000)
	if u := waitSettled(t, s, run.ID).progress(); !u.Complete {
		t.Fatalf("run settled with %d of %d done, %d failed", u.Done, u.Total, u.FailedJobs)
	}
	rows := s.reg.Histogram("wbserve_row_jobs")
	if rows.Count() != 4 || rows.Sum() != 8 {
		t.Errorf("wbserve_row_jobs count %d sum %d, want rows of 4, 2, 1, 1", rows.Count(), rows.Sum())
	}
}

// TestRowRemoteJobsRunInParallel: under a worker pool, where a row shares
// no generation, every dispatcher takes one queued job at a time, so jobs
// of one benchmark go to the pool concurrently, not one after another from
// one dispatcher's row.
func TestRowRemoteJobsRunInParallel(t *testing.T) {
	var inflight, peak atomic.Int32
	both := make(chan struct{})
	var once sync.Once
	worker := dispatch.WorkerHandler(metrics.NewRegistry())
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/job" {
			n := inflight.Add(1)
			defer inflight.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			if n == 2 {
				once.Do(func() { close(both) })
			}
			select { // hold each job until a second one is in flight
			case <-both:
			case <-time.After(5 * time.Second):
			}
		}
		worker.ServeHTTP(w, r)
	}))
	t.Cleanup(ws.Close)
	s, _ := testServerCfg(t, serverConfig{CacheSize: 64, MaxN: 5_000_000, Dispatchers: 2, WorkerAddrs: []string{ws.URL}})
	run := burst(t, s, "li-remote", 4, 20_000)
	if u := waitSettled(t, s, run.ID).progress(); !u.Complete {
		t.Fatalf("run settled with %d of %d done, %d failed", u.Done, u.Total, u.FailedJobs)
	}
	if p := peak.Load(); p != 2 {
		t.Errorf("at most %d jobs were in flight at the worker, want 2: the queued jobs ran one after another", p)
	}
	if rows := s.reg.Histogram("wbserve_row_jobs"); rows.Count() != 4 || rows.Sum() != 4 {
		t.Errorf("wbserve_row_jobs count %d sum %d, want four rows of one job", rows.Count(), rows.Sum())
	}
}
