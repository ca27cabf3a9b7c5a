package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/machconf"
	"repro/internal/resultstore"
)

// A job is done exactly while the store holds its result.  These tests
// make the store forget a finished job — LRU eviction, admin evict, an old
// journal's done lines — and check that the next request re-runs it.

// requestKey is the result-store key of a baseline single-job request.
func requestKey(t *testing.T, bench string, n uint64) string {
	t.Helper()
	key, _ := requestJob(t, bench, n)
	return key
}

// requestJob is the result-store key and machconf blob of a baseline
// single-job request.
func requestJob(t *testing.T, bench string, n uint64) (key string, blob []byte) {
	t.Helper()
	req, err := RunRequest{Bench: bench, N: n}.normalize(n)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := req.config()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := machconf.Hash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if blob, err = machconf.Encode(cfg); err != nil {
		t.Fatal(err)
	}
	return resultstore.Key(bench, n, hash), blob
}

// postRunWithin posts one request as tenantName (with an optional bearer
// token) and fails the test if it does not answer within d.
func postRunWithin(t *testing.T, ts *httptest.Server, tenantName, token, body string, d time.Duration) (int, RunResponse) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenantName != "" {
		req.Header.Set(tenantHeader, tenantName)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /run %s: %v", body, err)
	}
	defer resp.Body.Close()
	var out RunResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// fillPastCache runs four single-job requests on a memory-only server whose
// cache holds two, so the first one's result is evicted.
func fillPastCache(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s, ts := testServerCfg(t, serverConfig{CacheSize: 2, MaxN: 5_000_000})
	for _, bench := range []string{"li", "compress", "espresso", "sc"} {
		if status, _ := postRunWithin(t, ts, "alice", "", fmt.Sprintf(`{"bench":%q,"n":20000}`, bench), 5*time.Second); status != http.StatusOK {
			t.Fatalf("%s: status %d", bench, status)
		}
	}
	if s.storeHas(requestKey(t, "li", 20000)) {
		t.Fatal("li's result is still cached; the test needs it evicted")
	}
	return s, ts
}

// The tenant that ran an evicted job asks again: the run starts over and
// the job re-runs, instead of answering 500 for a missing result.
func TestEvictedResultRerunsSameTenant(t *testing.T) {
	_, ts := fillPastCache(t)
	status, out := postRunWithin(t, ts, "alice", "", `{"bench":"li","n":20000}`, 5*time.Second)
	if status != http.StatusOK || out.Instructions == 0 {
		t.Fatalf("resubmitting an evicted job: status %d, instructions %d; want 200 with a result", status, out.Instructions)
	}
}

// Another tenant asks for an evicted job: the queue must not dedupe it as
// done, or nothing ever runs it and the request never returns.
func TestEvictedResultRerunsOtherTenant(t *testing.T) {
	_, ts := fillPastCache(t)
	status, out := postRunWithin(t, ts, "bob", "", `{"bench":"li","n":20000}`, 5*time.Second)
	if status != http.StatusOK || out.Instructions == 0 {
		t.Fatalf("another tenant asking for an evicted job: status %d, instructions %d; want 200 with a result", status, out.Instructions)
	}
}

// An admin evict on a single-directory store makes the next request for
// the evicted configuration simulate again.
func TestAdminEvictThenResubmitReruns(t *testing.T) {
	s, ts := testServerCfg(t, serverConfig{
		CacheSize: 4, MaxN: 5_000_000, StoreDir: t.TempDir(), Keyring: testKeyring(t),
	})
	body := `{"bench":"li","n":20000}`
	if status, _ := postRunWithin(t, ts, "", "tok-alice", body, 5*time.Second); status != http.StatusOK {
		t.Fatalf("first run: status %d", status)
	}
	misses := s.reg.Counter("dispatch_store_misses_total")
	before := misses.Value()

	key := requestKey(t, "li", 20000)
	hash := key[strings.LastIndexByte(key, '|')+1:]
	resp := adminReq(t, ts, "POST", "/admin/store/evict", "tok-ops", fmt.Sprintf(`{"config_hash":%q}`, hash))
	var ev struct{ Removed int }
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil || resp.StatusCode != http.StatusOK || ev.Removed != 1 {
		t.Fatalf("evict: status %d, removed %d, err %v; want 200 removing 1", resp.StatusCode, ev.Removed, err)
	}

	status, out := postRunWithin(t, ts, "", "tok-alice", body, 5*time.Second)
	if status != http.StatusOK || out.Instructions == 0 || out.Cached {
		t.Fatalf("resubmit after evict: status %d, instructions %d, cached %v; want a fresh 200", status, out.Instructions, out.Cached)
	}
	if got := misses.Value(); got != before+1 {
		t.Errorf("dispatch_store_misses_total = %d after evict and resubmit, want %d", got, before+1)
	}
}

// A journal written with done markers resumes by the store alone: its done
// lines are not skipped lines, the jobs they name re-run because the store
// lacks them, and the startup compaction drops the done lines.
func TestResumeJournalWithDoneLines(t *testing.T) {
	dir := t.TempDir()
	queuePath := dir + "/queue.jsonl"
	key, blob := requestJob(t, "li", 20000)
	journal := fmt.Sprintf(`{"op":"run","run":{"id":"old","tenant":"alice","jobs":[{"bench":"li","n":20000,"config":%s,"key":%q,"tenant":"alice"}]}}
{"op":"done","key":%q}
`, blob, key, key)
	if err := os.WriteFile(queuePath, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := testServerCfg(t, serverConfig{
		CacheSize: 4, MaxN: 5_000_000, StoreDir: dir + "/store", QueuePath: queuePath, Keyring: testKeyring(t),
	})
	resp := adminReq(t, ts, "GET", "/admin/queue/status", "tok-ops", "")
	var qs struct {
		Skipped int `json:"skipped_lines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qs); err != nil {
		t.Fatal(err)
	}
	if qs.Skipped != 0 {
		t.Errorf("skipped_lines = %d, want 0 (a done line is not unparsable)", qs.Skipped)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		r := adminReq(t, ts, "GET", "/run/old", "tok-alice", "")
		if v := decodeRunView(t, r.Body); v.Complete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the journaled job the store lacks never re-ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	data, err := os.ReadFile(queuePath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"op":"done"`) {
		t.Errorf("compacted journal still holds done lines:\n%s", data)
	}
}
