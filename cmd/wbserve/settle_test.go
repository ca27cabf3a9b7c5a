package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/metrics"
)

// A run's outcomes go through one settle path, and a request acts on one
// store answer per job.  These tests pin what that buys: a sweep with a
// failed job still answers, a retry waits for the re-queued job, the run
// document reads the store, and the store's counters count one lookup per
// job per request.

// failFirst fails its first call and passes the rest to inner.
type failFirst struct {
	inner dispatch.Backend
	calls atomic.Int64
}

func (b *failFirst) Run(ctx context.Context, job dispatch.Job) (dispatch.Measurement, error) {
	if b.calls.Add(1) == 1 {
		return dispatch.Measurement{}, errors.New("injected: first call fails")
	}
	return b.inner.Run(ctx, job)
}

// failBench fails every job of one benchmark and passes the rest to inner.
type failBench struct {
	inner dispatch.Backend
	bench string
}

func (b failBench) Run(ctx context.Context, job dispatch.Job) (dispatch.Measurement, error) {
	if job.Bench == b.bench {
		return dispatch.Measurement{}, errors.New("injected: " + b.bench + " fails")
	}
	return b.inner.Run(ctx, job)
}

// getWithin sends req and fails the test if it does not answer within d;
// it returns the status and the whole body.
func getWithin(t *testing.T, req *http.Request, d time.Duration) (int, []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(req.Context(), d)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", req.Method, req.URL.Path, err)
	}
	return resp.StatusCode, body
}

// A retried synchronous request after a transient failure waits for the
// job Submit re-queued instead of answering from the failed attempt.
func TestFailureRetryWaitsForRequeuedJob(t *testing.T) {
	_, ts := testServerCfg(t, serverConfig{
		CacheSize: 4, MaxN: 5_000_000,
		testBackend: func(b dispatch.Backend) dispatch.Backend { return &failFirst{inner: b} },
	})
	var got []int
	for range 3 {
		status, _ := postRunWithin(t, ts, "", "", `{"bench":"li","n":20000}`, 5*time.Second)
		got = append(got, status)
	}
	if got[0] != http.StatusInternalServerError || got[1] != http.StatusOK || got[2] != http.StatusOK {
		t.Fatalf("statuses %v, want [500 200 200]", got)
	}
}

// A synchronous sweep whose first job fails answers once the other job is
// done, with the failure counted, and its event stream ends with a done
// event that names each job by key.
func TestSyncSweepFailureSettles(t *testing.T) {
	_, ts := testServerCfg(t, serverConfig{
		CacheSize: 4, MaxN: 5_000_000, Dispatchers: 1,
		testBackend: func(b dispatch.Backend) dispatch.Backend { return failBench{inner: b, bench: "li"} },
	})
	req, err := http.NewRequest("POST", ts.URL+"/run", strings.NewReader(`{"benches":["li","compress"],"n":20000}`))
	if err != nil {
		t.Fatal(err)
	}
	status, body := getWithin(t, req, 5*time.Second)
	if status != http.StatusOK {
		t.Fatalf("sync sweep with a failed job: status %d, want 200: %s", status, body)
	}
	var doc runView
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Done != 1 || doc.Failed != 1 || doc.Complete {
		t.Fatalf("run document done=%d failed=%d complete=%v, want 1/1/false", doc.Done, doc.Failed, doc.Complete)
	}
	li, compress := doc.Jobs[0], doc.Jobs[1]
	if li.Done || !li.Failed || !compress.Done || compress.Failed {
		t.Fatalf("job rows %+v, want li failed only and compress done only", doc.Jobs)
	}
	if doc.Results[0] != nil || doc.Results[1] == nil {
		t.Errorf("results %v, want only compress's", doc.Results)
	}

	// The whole event history, replayed, ends in a done event.
	sse, err := http.NewRequest("GET", ts.URL+doc.EventsURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	sse.Header.Set("Last-Event-ID", "0")
	status, body = getWithin(t, sse, 5*time.Second)
	if status != http.StatusOK {
		t.Fatalf("GET %s: status %d", doc.EventsURL, status)
	}
	events, ids, updates := readSSE(t, bytes.NewReader(body))
	if len(updates) != 2 || events[0] != "progress" || events[1] != "done" || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("events %v ids %v, want progress 1 then done 2", events, ids)
	}
	fail, last := updates[0], updates[1]
	if !fail.Failed || fail.Key != li.Key || fail.Bench != "li" || fail.FailedJobs != 1 || fail.Done != 0 {
		t.Errorf("failure update %+v, want li's key failed with 0 done", fail)
	}
	if last.Failed || last.Key != compress.Key || last.Done != 1 || last.FailedJobs != 1 || last.Complete {
		t.Errorf("done update %+v, want compress's key done, 1 failed, not complete", last)
	}
}

// One single-job miss asks the store once in the request and once in the
// dispatcher, so the store counts as many misses as it has reasons to.
func TestMissLookupsOncePerRequest(t *testing.T) {
	s, ts := testServerCfg(t, serverConfig{CacheSize: 4, MaxN: 5_000_000, StoreDir: t.TempDir()})
	if status, _ := postRunWithin(t, ts, "", "", `{"bench":"li","n":20000}`, 5*time.Second); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if n := s.reg.Counter("dispatch_store_misses_total").Value(); n != 1 {
		t.Errorf("dispatch_store_misses_total = %d, want 1", n)
	}
	if n := s.reg.Counter("resultstore_misses_total").Value(); n != 2 {
		t.Errorf("resultstore_misses_total = %d, want 2 (the request's lookup and the dispatcher's)", n)
	}
}

// Resubmitting a finished run asks the store once per job.
func TestResubmitLookupsOncePerJob(t *testing.T) {
	s, ts := testServerCfg(t, serverConfig{CacheSize: 4, MaxN: 5_000_000})
	body := `{"benches":["li","compress","espresso"],"n":20000,"async":true}`
	v := decodeRunView(t, postRunTenant(t, ts, "", body).Body)
	waitComplete(t, ts, v.ID)

	hits := s.reg.Counter(metrics.Label("resultstore_hits_total", "tier", "memory"))
	before := hits.Value()
	again := decodeRunView(t, postRunTenant(t, ts, "", body).Body)
	if !again.Complete {
		t.Fatalf("resubmitted finished run: %+v, want complete", again)
	}
	if n := hits.Value() - before; n != 3 {
		t.Errorf("resubmitting a finished 3-job run cost %d memory hits, want 3", n)
	}
}

// A run whose job the store forgets reports that job pending: the run
// document reads the store, not the ledger.
func TestEvictedJobLeavesRunIncomplete(t *testing.T) {
	s, ts := testServerCfg(t, serverConfig{CacheSize: 2, MaxN: 5_000_000})
	v := decodeRunView(t, postRunTenant(t, ts, "alice", `{"benches":["li","compress"],"n":20000,"async":true}`).Body)
	waitComplete(t, ts, v.ID)
	for _, bench := range []string{"espresso", "sc"} {
		if status, _ := postRunWithin(t, ts, "bob", "", `{"bench":"`+bench+`","n":20000}`, 5*time.Second); status != http.StatusOK {
			t.Fatalf("%s: status %d", bench, status)
		}
	}
	if s.storeHas(requestKey(t, "li", 20000)) {
		t.Fatal("li's result is still cached; the test needs it evicted")
	}
	doc := getRunDoc(t, ts.URL+"/run/"+v.ID)
	li := doc.Jobs[0]
	if li.Done || li.Failed || doc.Complete || doc.Done != 0 || doc.Results[0] != nil {
		t.Fatalf("run after eviction: done=%d complete=%v li=%+v, want li neither done nor failed and the run incomplete", doc.Done, doc.Complete, li)
	}
}
