package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/resultstore"
)

// failBackend fails every job — the injected stand-in for config skew or a
// dead worker pool (local execution cannot fail for an admitted config, so
// the dispatcher's failure path is unreachable without this seam).
type failBackend struct{}

func (failBackend) Run(context.Context, dispatch.Job) (dispatch.Measurement, error) {
	return dispatch.Measurement{}, errors.New("injected: backend down")
}

// getRunDoc fetches and decodes GET /run/{id}.
func getRunDoc(t *testing.T, url string) runView {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var doc runView
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// A failed job must never be recorded as completed: the run document shows
// it failed (complete stays false), the store holds no result for it, and
// a synchronous request answers 500 rather than fabricating a result.
func TestJobFailureKeepsLedgerHonest(t *testing.T) {
	s, ts := testServerCfg(t, serverConfig{
		CacheSize: 4, MaxN: 5_000_000,
		testBackend: func(dispatch.Backend) dispatch.Backend { return failBackend{} },
	})

	resp, err := http.Post(ts.URL+"/run", "application/json",
		strings.NewReader(`{"bench":"li","n":100000,"async":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var doc runView
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST /run: status %d, want 202", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The failure lands asynchronously; wait for the run to settle.
	deadline := time.Now().Add(10 * time.Second)
	for doc.Done+doc.Failed < doc.Total {
		if time.Now().After(deadline) {
			t.Fatalf("run never settled: %+v", doc)
		}
		time.Sleep(10 * time.Millisecond)
		doc = getRunDoc(t, ts.URL+"/run/"+doc.ID)
	}
	if doc.Failed != 1 || doc.Done != 0 || doc.Complete {
		t.Fatalf("run after failure: done=%d failed=%d complete=%v, want 0/1/false", doc.Done, doc.Failed, doc.Complete)
	}
	if !doc.Jobs[0].Failed || doc.Jobs[0].Done {
		t.Errorf("job row after failure: %+v, want failed and not done", doc.Jobs[0])
	}
	if s.storeHas(doc.Jobs[0].Key) {
		t.Error("failed job has a stored result — a restart would never retry it")
	}
	if n := s.reg.Counter("wbserve_job_failures_total").Value(); n < 1 {
		t.Errorf("wbserve_job_failures_total = %d, want >= 1", n)
	}

	// The synchronous path must not pretend: the waiter is released (done +
	// failed covers the run) and answers 500, since there is no stored result.
	resp2, err := http.Post(ts.URL+"/run", "application/json",
		strings.NewReader(`{"bench":"li","n":100000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Fatalf("sync request for a failing job: status %d, want 500", resp2.StatusCode)
	}
}

// A job whose store write failed still completes its runs — the measurement
// is valid and served — but the store only holds it in memory, so after a
// restart over the same directories the journal re-runs it instead of
// trusting a result that was never kept.  The write fails because a
// directory sits where the store's log goes.
func TestUnstoredResultCompletesWithoutDoneMarker(t *testing.T) {
	dir := t.TempDir()
	cfg := serverConfig{CacheSize: 4, MaxN: 5_000_000, StoreDir: dir + "/store", QueuePath: dir + "/queue.jsonl"}
	key := requestKey(t, "li", 100_000)
	s, ts := testServerCfg(t, cfg)
	blocker := filepath.Join(cfg.StoreDir, resultstore.LogName)
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	resp, out := postRun(t, ts, `{"bench":"li","n":100000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync run with an unstorable result: status %d, want 200 (the measurement is in hand)", resp.StatusCode)
	}
	if out.Instructions == 0 {
		t.Error("empty measurement returned alongside a 200")
	}
	if n := s.reg.Counter("resultstore_put_failures_total").Value(); n != 1 {
		t.Errorf("resultstore_put_failures_total = %d, want 1", n)
	}
	if n := s.reg.Counter("wbserve_job_failures_total").Value(); n != 0 {
		t.Errorf("an unstored result was counted as a job failure (%d)", n)
	}
	ts.Close()
	s.Close()

	// The disk recovers; a restart over the same directories re-runs the
	// job the store never kept, and this time stores it.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	s2, _ := testServerCfg(t, cfg)
	deadline := time.Now().Add(10 * time.Second)
	for !s2.storeHas(key) {
		if time.Now().After(deadline) {
			t.Fatal("restart never re-ran the unstored job")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := s2.reg.Counter("dispatch_store_misses_total").Value(); n != 1 {
		t.Errorf("restart simulated %d jobs, want 1 (the unstored one)", n)
	}
}
