package main

import (
	"fmt"
	"net/http"
	"testing"
	"time"
)

// registered reports how many runs the registry holds.
func registered(s *server) int {
	s.runs.mu.Lock()
	defer s.runs.mu.Unlock()
	return len(s.runs.runs)
}

// TestRunRegistryBounded: distinct synchronous requests each register a run,
// but the registry keeps at most maxCompletedRuns of them once completed.
func TestRunRegistryBounded(t *testing.T) {
	s, ts := testServerCfg(t, serverConfig{CacheSize: 4, MaxN: 5_000_000})
	for i := range 400 {
		body := fmt.Sprintf(`{"bench":"li","n":%d}`, 2000+i)
		if status, _ := postRunWithin(t, ts, "", "", body, 10*time.Second); status != http.StatusOK {
			t.Fatalf("POST /run %s: status %d", body, status)
		}
	}
	if n := registered(s); n > maxCompletedRuns {
		t.Fatalf("%d runs registered after 400 completed requests, want at most %d", n, maxCompletedRuns)
	}

	// Reading every old run's document registers none of them, although
	// the store has evicted all but four of their results.
	evicted := 0
	for _, run := range s.queue.Runs() {
		resp, err := http.Get(ts.URL + "/run/" + run.ID)
		if err != nil {
			t.Fatal(err)
		}
		v := decodeRunView(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /run/%s: status %d, want 200", run.ID, resp.StatusCode)
		}
		if !v.Complete {
			evicted++
		}
	}
	if evicted < 400-4 {
		t.Errorf("%d of 400 old runs read not complete, want at least 396 (the store holds 4 results)", evicted)
	}
	if n := registered(s); n > maxCompletedRuns {
		t.Fatalf("%d runs registered after reading 400 old run documents, want at most %d", n, maxCompletedRuns)
	}
}

// TestDroppedRunLookupRegistersNothingForOtherTenants: a tenant refused a
// dropped run's event stream leaves the registry as it found it, even for
// a run whose evicted result would register it for its owner.
func TestDroppedRunLookupRegistersNothingForOtherTenants(t *testing.T) {
	s, ts := testServerCfg(t, serverConfig{CacheSize: 4, MaxN: 5_000_000, Keyring: threeTenantKeyring(t)})
	for i := 0; i <= maxCompletedRuns; i++ {
		body := fmt.Sprintf(`{"bench":"li","n":%d}`, 2000+i)
		if status, _ := postRunWithin(t, ts, "", "tok-alice", body, 10*time.Second); status != http.StatusOK {
			t.Fatalf("POST /run %s: status %d", body, status)
		}
	}
	first := s.queue.Runs()[0].ID
	if _, ok := s.runs.get(first); ok {
		t.Fatalf("run %s still registered after %d later runs completed", first, maxCompletedRuns)
	}
	before := registered(s)
	for _, path := range []string{"/run/" + first, "/run/" + first + "/events"} {
		if resp := adminReq(t, ts, "GET", path, "tok-bob", ""); resp.StatusCode != http.StatusForbidden {
			t.Errorf("GET %s as another tenant: status %d, want 403", path, resp.StatusCode)
		}
	}
	if _, ok := s.runs.get(first); ok || registered(s) != before {
		t.Errorf("a refused lookup registered the run (%d runs registered, was %d)", registered(s), before)
	}
}

// TestDroppedRunAnswersComplete: a completed run the registry dropped still
// answers GET /run/{id} and its event stream as complete, re-registered from
// the journaled run and the store.
func TestDroppedRunAnswersComplete(t *testing.T) {
	s, ts := testServerCfg(t, serverConfig{CacheSize: 4, MaxN: 5_000_000, StoreDir: t.TempDir()})
	first := asyncRun(t, ts.URL, `{"bench":"li","n":2000,"async":true}`)
	waitSettled(t, s, first)
	for i := 1; i <= maxCompletedRuns; i++ {
		body := fmt.Sprintf(`{"bench":"li","n":%d}`, 2000+i)
		if status, _ := postRunWithin(t, ts, "", "", body, 10*time.Second); status != http.StatusOK {
			t.Fatalf("POST /run %s: status %d", body, status)
		}
	}
	if _, ok := s.runs.get(first); ok {
		t.Fatalf("run %s still registered after %d later runs completed", first, maxCompletedRuns)
	}

	resp, err := http.Get(ts.URL + "/run/" + first)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /run/%s of a dropped run: status %d, want 200", first, resp.StatusCode)
	}
	if v := decodeRunView(t, resp.Body); !v.Complete || v.Done != 1 || v.Results[0] == nil {
		t.Fatalf("dropped run document: complete=%v done=%d results=%v, want complete with its result", v.Complete, v.Done, v.Results)
	}
	events, _, updates := getEvents(t, ts, first, "")
	if len(updates) != 1 || events[0] != "done" || !updates[0].Complete {
		t.Fatalf("dropped run's event stream: events=%v updates=%+v, want a single done snapshot", events, updates)
	}
}

// TestDroppedEvictedRunStreamFollowsResubmission: the event stream of a
// dropped run whose result the store has evicted registers the run once,
// reports it not done, and ends with done when the run is resubmitted.
func TestDroppedEvictedRunStreamFollowsResubmission(t *testing.T) {
	s, ts := testServerCfg(t, serverConfig{CacheSize: 4, MaxN: 5_000_000})
	const firstBody = `{"bench":"li","n":2000}`
	for i := 0; i <= maxCompletedRuns; i++ {
		body := fmt.Sprintf(`{"bench":"li","n":%d}`, 2000+i)
		if status, _ := postRunWithin(t, ts, "", "", body, 10*time.Second); status != http.StatusOK {
			t.Fatalf("POST /run %s: status %d", body, status)
		}
	}
	first := s.queue.Runs()[0].ID
	if _, ok := s.runs.get(first); ok {
		t.Fatalf("run %s still registered after %d later runs completed", first, maxCompletedRuns)
	}
	before := registered(s)

	type stream struct {
		events  []string
		updates []runUpdate
	}
	got := make(chan stream, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/run/" + first + "/events")
		if err != nil {
			got <- stream{}
			return
		}
		defer resp.Body.Close()
		events, _, updates := readSSE(t, resp.Body)
		got <- stream{events, updates}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := s.runs.get(first); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the stream of a dropped, evicted run never registered it")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := registered(s); n != before+1 {
		t.Fatalf("%d runs registered, want %d (the streamed run once)", n, before+1)
	}
	if status, _ := postRunWithin(t, ts, "", "", firstBody, 10*time.Second); status != http.StatusOK {
		t.Fatalf("resubmission: status %d", status)
	}
	select {
	case st := <-got:
		if len(st.updates) < 2 || st.updates[0].Complete || st.events[len(st.events)-1] != "done" || !st.updates[len(st.updates)-1].Complete {
			t.Fatalf("stream events %v updates %+v, want a not-done snapshot, then done", st.events, st.updates)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the stream never ended after the resubmission")
	}
}
