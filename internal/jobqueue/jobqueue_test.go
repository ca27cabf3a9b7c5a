package jobqueue

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func job(bench, key, tenant string) Job {
	return Job{Bench: bench, N: 1000, Key: key, Tenant: tenant, Config: []byte(`{}`)}
}

// storeSet stands in for the result store: its has method is the
// membership test the queue decides with.
type storeSet map[string]bool

func (s storeSet) has(key string) bool { return s[key] }

func TestFIFOOrderAndDedup(t *testing.T) {
	reg := metrics.NewRegistry()
	q, err := Open("", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	queued, err := q.Submit(Run{ID: "r1", Jobs: []Job{
		job("li", "k1", "a"), job("compress", "k2", "a"),
	}}, nil)
	if err != nil || queued != 2 {
		t.Fatalf("Submit = (%d, %v), want (2, nil)", queued, err)
	}
	// A second run sharing k2: only its fresh job enqueues.
	queued, _ = q.Submit(Run{ID: "r2", Jobs: []Job{
		job("compress", "k2", "b"), job("go", "k3", "b"),
	}}, nil)
	if queued != 1 {
		t.Fatalf("dedup failed: queued %d, want 1", queued)
	}
	if n := reg.Counter("jobqueue_deduped_total").Value(); n != 1 {
		t.Errorf("deduped counter = %d, want 1", n)
	}
	var got []string
	for i := 0; i < 3; i++ {
		j, err := q.Dequeue(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, j.Key)
	}
	want := []string{"k1", "k2", "k3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", got, want)
		}
	}
	if q.Depth() != 0 {
		t.Errorf("depth %d after draining", q.Depth())
	}
}

// A key stays deduplicated while its job is in flight: a resubmission
// between Dequeue and Done must not enqueue a second execution.  After
// Done, only the store decides: a job whose result the store lacks (it
// failed) queues again, and one the store holds does not.
func TestInFlightKeyDedupedUntilDone(t *testing.T) {
	q, err := Open("", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	store := storeSet{}
	run := Run{ID: "r", Jobs: []Job{job("li", "k1", "a")}}
	if queued, _ := q.Submit(run, store.has); queued != 1 {
		t.Fatalf("first Submit queued %d, want 1", queued)
	}
	if _, err := q.Dequeue(context.Background()); err != nil {
		t.Fatal(err)
	}
	if queued, _ := q.Submit(run, store.has); queued != 0 {
		t.Fatalf("Submit while k1 is in flight queued %d, want 0", queued)
	}
	q.Done("k1") // failed: nothing stored
	if queued, _ := q.Submit(run, store.has); queued != 1 {
		t.Fatalf("Submit after a failed Done queued %d, want 1", queued)
	}
	if _, err := q.Dequeue(context.Background()); err != nil {
		t.Fatal(err)
	}
	store["k1"] = true
	if err := q.Done("k1"); err != nil {
		t.Fatal(err)
	}
	if queued, _ := q.Submit(run, store.has); queued != 0 {
		t.Fatalf("Submit after a stored Done queued %d, want 0", queued)
	}
}

func TestDequeueBlocksUntilSubmit(t *testing.T) {
	q, _ := Open("", nil, nil)
	defer q.Close()
	got := make(chan Job, 1)
	go func() {
		j, err := q.Dequeue(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- j
	}()
	time.Sleep(20 * time.Millisecond) // let the consumer block
	q.Submit(Run{ID: "r", Jobs: []Job{job("li", "k", "")}}, nil)
	select {
	case j := <-got:
		if j.Key != "k" {
			t.Errorf("dequeued %q", j.Key)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Dequeue never woke")
	}
}

func TestDequeueHonoursContext(t *testing.T) {
	q, _ := Open("", nil, nil)
	defer q.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := q.Dequeue(ctx); err == nil {
		t.Fatal("Dequeue returned without work or cancellation")
	}
}

// Kill-and-restart: a journaled queue reopened after losing its process
// re-delivers exactly the undone jobs, in order.
func TestJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q1, err := Open(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := Run{ID: "sweep", Tenant: "t", Jobs: []Job{
		job("li", "k1", "t"), job("compress", "k2", "t"), job("go", "k3", "t"),
	}}
	if _, err := q1.Submit(run, nil); err != nil {
		t.Fatal(err)
	}
	// k1 completes; k2 is dequeued (in flight) when the process "dies".
	j, _ := q1.Dequeue(context.Background())
	if j.Key != "k1" {
		t.Fatalf("first job %q", j.Key)
	}
	store := storeSet{"k1": true}
	q1.Done("k1")
	q1.Dequeue(context.Background()) // k2 in flight, never Done
	q1.Close()                       // the kill (journal survives)

	q2, err := Open(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if runs, _ := q2.Loaded(); runs != 1 {
		t.Fatalf("replayed %d runs, want 1", runs)
	}
	if n := q2.Resume(store.has); n != 2 {
		t.Fatalf("resumed %d jobs, want 2 (k2 in flight + k3 pending)", n)
	}
	r, ok := q2.RunByID("sweep")
	if !ok || len(r.Jobs) != 3 || r.Tenant != "t" {
		t.Fatalf("run record lost: %+v, %v", r, ok)
	}
	for _, want := range []string{"k2", "k3"} {
		j, err := q2.Dequeue(context.Background())
		if err != nil || j.Key != want {
			t.Fatalf("redelivery = (%q, %v), want %q", j.Key, err, want)
		}
	}
}

// The store is the record of a finished job: results that made it to the
// store before the kill are not re-run.
func TestResumeTrustsStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q1, _ := Open(path, nil, nil)
	run := Run{ID: "r", Jobs: []Job{job("li", "k1", ""), job("go", "k2", "")}}
	q1.Submit(run, nil)
	q1.Close() // killed before any Done

	q2, _ := Open(path, nil, nil)
	defer q2.Close()
	inStore := storeSet{"k1": true} // k1's Put landed before the kill
	if n := q2.Resume(inStore.has); n != 1 {
		t.Fatalf("resumed %d jobs, want 1", n)
	}
	j, _ := q2.Dequeue(context.Background())
	if j.Key != "k2" {
		t.Errorf("resumed job %q, want k2", j.Key)
	}
	if queued, _ := q2.Submit(run, inStore.has); queued != 0 {
		t.Errorf("resubmission queued %d jobs, want 0 (k1 stored, k2 in flight)", queued)
	}
}

// A torn final journal line (killed mid-append) must not poison replay.
func TestTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q1, _ := Open(path, nil, nil)
	q1.Submit(Run{ID: "r", Jobs: []Job{job("li", "k1", "")}}, nil)
	q1.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"done","key":"k1`) // torn mid-append
	f.Close()

	q2, err := Open(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if _, skipped := q2.Loaded(); skipped != 1 {
		t.Errorf("skipped %d lines, want 1", skipped)
	}
	if n := q2.Resume(nil); n != 1 {
		t.Errorf("resumed %d jobs, want 1 (torn line ignored)", n)
	}
}

func TestDepthByTenant(t *testing.T) {
	q, _ := Open("", nil, nil)
	defer q.Close()
	q.Submit(Run{ID: "r1", Jobs: []Job{job("li", "k1", "alice"), job("go", "k2", "alice")}}, nil)
	q.Submit(Run{ID: "r2", Jobs: []Job{job("li", "k3", "bob")}}, nil)
	d := q.DepthByTenant()
	if d["alice"] != 2 || d["bob"] != 1 {
		t.Errorf("DepthByTenant = %v", d)
	}
}

func TestCloseUnblocksDequeue(t *testing.T) {
	q, _ := Open("", nil, nil)
	errc := make(chan error, 1)
	go func() {
		_, err := q.Dequeue(context.Background())
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	q.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("Dequeue on a closed queue returned a job")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock Dequeue")
	}
}

// Concurrent producers and consumers: every key delivered exactly once.
func TestConcurrentProducersConsumers(t *testing.T) {
	q, _ := Open(filepath.Join(t.TempDir(), "q.jsonl"), nil, nil)
	defer q.Close()
	const producers, perProducer, consumers = 4, 25, 3
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				key := fmt.Sprintf("p%d-k%d", p, i)
				if _, err := q.Submit(Run{ID: key, Jobs: []Job{job("li", key, "")}}, nil); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	seen := make(chan string, producers*perProducer)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var cg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				j, err := q.Dequeue(ctx)
				if err != nil {
					return
				}
				q.Done(j.Key)
				seen <- j.Key
			}
		}()
	}
	wg.Wait()
	got := map[string]bool{}
	for i := 0; i < producers*perProducer; i++ {
		select {
		case k := <-seen:
			if got[k] {
				t.Fatalf("key %s delivered twice", k)
			}
			got[k] = true
		case <-ctx.Done():
			t.Fatalf("only %d/%d jobs delivered", len(got), producers*perProducer)
		}
	}
	cancel()
	cg.Wait()
}

// Resume must compact the journal: runs whose every job the store holds
// drop out, live runs survive, and the file shrinks — while resumed
// semantics stay exactly as before.
func TestResumeCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.jsonl")
	reg := metrics.NewRegistry()
	q, err := Open(path, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One run fully completed, one half done.
	if _, err := q.Submit(Run{ID: "complete", Jobs: []Job{job("li", "k1", ""), job("li", "k2", "")}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Run{ID: "partial", Jobs: []Job{job("go", "k3", ""), job("go", "k4", "")}}, nil); err != nil {
		t.Fatal(err)
	}
	store := storeSet{}
	for _, k := range []string{"k1", "k2", "k3"} {
		store[k] = true
		if err := q.Done(k); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	reg2 := metrics.NewRegistry()
	q2, err := Open(path, reg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if n := q2.Resume(store.has); n != 1 {
		t.Fatalf("resumed %d jobs, want 1 (only k4 is undone)", n)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("journal did not shrink: %d -> %d bytes", before.Size(), after.Size())
	}
	if n := reg2.Counter("jobqueue_compactions_total").Value(); n != 1 {
		t.Errorf("compactions = %d, want 1", n)
	}
	if got := q2.JournalBytes(); got != after.Size() {
		t.Errorf("JournalBytes = %d, file is %d", got, after.Size())
	}
	if g := reg2.Gauge("jobqueue_journal_bytes").Value(); int64(g) != after.Size() {
		t.Errorf("jobqueue_journal_bytes gauge = %v, file is %d", g, after.Size())
	}

	// The compacted journal must still be a correct journal: a third open
	// sees the live run with k3 done and only k4 pending, and appends work.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	j, err := q2.Dequeue(ctx)
	if err != nil || j.Key != "k4" {
		t.Fatalf("Dequeue = %v, %v; want k4", j, err)
	}
	store["k4"] = true
	if err := q2.Done("k4"); err != nil {
		t.Fatal(err)
	}
	if _, err := q2.Submit(Run{ID: "late", Jobs: []Job{job("li", "k5", "")}}, store.has); err != nil {
		t.Fatal(err)
	}
	q2.Close()

	q3, err := Open(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q3.Close()
	if n := q3.Resume(store.has); n != 1 {
		t.Errorf("third open resumed %d jobs, want 1 (only k5 is undone)", n)
	}
	if _, ok := q3.RunByID("complete"); ok {
		t.Error("fully completed run survived compaction")
	}
	if _, ok := q3.RunByID("late"); !ok {
		t.Error("run appended after compaction was lost")
	}
}

// A compaction with nothing to reclaim must leave the journal alone.
func TestCompactionSkippedWhenNothingToReclaim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := Open(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Run{ID: "r", Jobs: []Job{job("li", "k1", "")}}, nil); err != nil {
		t.Fatal(err)
	}
	q.Close()
	before, _ := os.Stat(path)

	reg := metrics.NewRegistry()
	q2, err := Open(path, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	q2.Resume(nil)
	after, _ := os.Stat(path)
	if before.Size() != after.Size() {
		t.Errorf("journal changed size with nothing to reclaim: %d -> %d", before.Size(), after.Size())
	}
	if n := reg.Counter("jobqueue_compactions_total").Value(); n != 0 {
		t.Errorf("compactions = %d, want 0", n)
	}
}

// Resubmitting a journaled run id appends nothing: ten identical Submits
// leave the journal at the first one's size.
func TestResubmissionJournalsOnce(t *testing.T) {
	q, err := Open(filepath.Join(t.TempDir(), "queue.jsonl"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	run := Run{ID: "r", Tenant: "t", Jobs: []Job{job("li", "k1", "t"), job("go", "k2", "t")}}
	if _, err := q.Submit(run, nil); err != nil {
		t.Fatal(err)
	}
	first := q.JournalBytes()
	for i := 1; i < 10; i++ {
		if _, err := q.Submit(run, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.JournalBytes(); got != first {
		t.Errorf("journal after ten identical Submits = %d bytes, want %d (the first Submit's)", got, first)
	}
}

// The queue holds at most RetainedRuns runs once they settle: unsettled
// runs are never dropped, the oldest settled ones go first, the journal is
// untouched, and a dropped id is journaled again on resubmission while
// replay keeps its first record.
func TestRetainedRunsBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := Open(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	const total = RetainedRuns + 10
	for i := range total {
		id := fmt.Sprintf("r%d", i)
		if _, err := q.Submit(Run{ID: id, Jobs: []Job{job("li", "k"+id, "t")}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(q.Runs()); n != total {
		t.Fatalf("queue holds %d runs with every job pending, want all %d", n, total)
	}
	for range total {
		j, err := q.Dequeue(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		q.Done(j.Key)
	}
	journal := q.JournalBytes()
	if _, err := q.Submit(Run{ID: "last", Jobs: []Job{job("li", "klast", "t")}}, storeSet{"klast": true}.has); err != nil {
		t.Fatal(err)
	}
	runs := q.Runs()
	if len(runs) != RetainedRuns {
		t.Fatalf("queue holds %d settled runs, want %d", len(runs), RetainedRuns)
	}
	if runs[0].ID != "r11" || runs[len(runs)-1].ID != "last" {
		t.Errorf("held runs %s..%s, want the newest (r11..last)", runs[0].ID, runs[len(runs)-1].ID)
	}
	if _, ok := q.RunByID("r0"); ok {
		t.Error("the oldest settled run is still held")
	}
	if q.JournalBytes() <= journal {
		t.Error("the new run was not journaled")
	}

	// A dropped id is journaled again; replay keeps the first record.
	if _, err := q.Submit(Run{ID: "r0", Jobs: []Job{job("go", "kother", "t")}}, storeSet{"kother": true}.has); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"id":"r0"`); n != 2 {
		t.Errorf("journal holds %d records of r0, want 2", n)
	}
	q2, err := Open(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if r, ok := q2.RunByID("r0"); !ok || r.Jobs[0].Key != "kr0" {
		t.Errorf("replayed r0 = %+v, %v; want the first submission (key kr0)", r, ok)
	}
}

// A journal written with {"op":"done"} markers replays them as no-ops: they
// are not counted as skipped lines, a done key the store lacks re-runs, and
// the first compaction drops every done line.
func TestDoneLinesReplayAsNoOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	old := `{"op":"run","run":{"id":"r","jobs":[{"bench":"li","n":1000,"config":{},"key":"k1"},{"bench":"go","n":1000,"config":{},"key":"k2"},{"bench":"gcc","n":1000,"config":{},"key":"k3"}]}}
{"op":"done","key":"k1"}
{"op":"done","key":"k2"}
`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Open(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if runs, skipped := q.Loaded(); runs != 1 || skipped != 0 {
		t.Fatalf("Loaded = (%d runs, %d skipped), want (1, 0)", runs, skipped)
	}
	store := storeSet{"k1": true} // k2's result was evicted since its done line
	if n := q.Resume(store.has); n != 2 {
		t.Fatalf("resumed %d jobs, want 2 (k2, which the store lacks, and k3)", n)
	}
	for _, want := range []string{"k2", "k3"} {
		j, err := q.Dequeue(context.Background())
		if err != nil || j.Key != want {
			t.Fatalf("Dequeue = (%q, %v), want %q", j.Key, err, want)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"op":"done"`) {
		t.Errorf("compacted journal still holds done lines:\n%s", data)
	}
	if !strings.Contains(string(data), `"id":"r"`) {
		t.Errorf("compacted journal lost the live run:\n%s", data)
	}
}

// jobN is job with an explicit instruction count.
func jobN(bench string, n uint64, key, tenant string) Job {
	j := job(bench, key, tenant)
	j.N = n
	return j
}

func keys(jobs []Job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.Key
	}
	return out
}

// DequeueRow takes the head job and later jobs of the same (bench, n) only,
// never more than max, and leaves the rest in FIFO order.
func TestDequeueRowTakesSameBenchAndN(t *testing.T) {
	q, err := Open("", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Submit(Run{ID: "r1", Jobs: []Job{
		jobN("li", 1000, "a1", "a"),
		jobN("compress", 1000, "a2", "a"),
		jobN("li", 2000, "a3", "a"), // same bench, other n
		jobN("li", 1000, "b1", "b"),
		jobN("li", 1000, "b2", "b"),
		jobN("compress", 1000, "b3", "b"),
		jobN("li", 1000, "b4", "b"), // beyond max
	}}, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	row, err := q.DequeueRow(ctx, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(keys(row), ","); got != "a1,b1,b2" {
		t.Fatalf("first row %s, want a1,b1,b2", got)
	}
	if d := q.DepthByTenant(); d["a"] != 2 || d["b"] != 2 || q.Depth() != 4 {
		t.Fatalf("depth after first row: %v (total %d), want a:2 b:2", d, q.Depth())
	}
	row, _ = q.DequeueRow(ctx, 3, 1)
	if got := strings.Join(keys(row), ","); got != "a2,b3" {
		t.Fatalf("second row %s, want a2,b3", got)
	}
	for _, want := range []string{"a3", "b4"} {
		row, _ = q.DequeueRow(ctx, 3, 1)
		if len(row) != 1 || row[0].Key != want {
			t.Fatalf("row %v, want [%s]", keys(row), want)
		}
	}
	if q.Depth() != 0 || len(q.DepthByTenant()) != 0 {
		t.Fatalf("queue not drained: depth %d, by tenant %v", q.Depth(), q.DepthByTenant())
	}
}

// Every job a row takes stays in flight on its own key: a resubmission is
// deduplicated until that key's Done, and only that key's.
func TestDequeueRowKeysDedupedUntilOwnDone(t *testing.T) {
	q, err := Open("", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	jobs := []Job{job("li", "k1", ""), job("li", "k2", ""), job("li", "k3", "")}
	if _, err := q.Submit(Run{ID: "r1", Jobs: jobs}, nil); err != nil {
		t.Fatal(err)
	}
	row, err := q.DequeueRow(context.Background(), 8, 1)
	if err != nil || len(row) != 3 {
		t.Fatalf("DequeueRow = %v, %v; want all three jobs", keys(row), err)
	}
	resubmit := func(id string) int {
		n, err := q.Submit(Run{ID: id, Jobs: jobs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := resubmit("r2"); n != 0 {
		t.Fatalf("resubmission while the row is in flight queued %d, want 0", n)
	}
	_ = q.Done("k2")
	if n := resubmit("r3"); n != 1 {
		t.Fatalf("after Done(k2) a resubmission queued %d, want 1 (k2 only)", n)
	}
	if d := q.DepthByTenant(); d[""] != 1 || q.Depth() != 1 {
		t.Fatalf("depth %v, want the one re-queued job", d)
	}
	_ = q.Done("k1")
	_ = q.Done("k3")
	if n := resubmit("r4"); n != 2 {
		t.Fatalf("after every Done a resubmission queued %d, want 2 (k1, k3)", n)
	}
}

// A width or ways below one still takes the head job, and Dequeue is the
// one-job row.
func TestDequeueRowMinimumOne(t *testing.T) {
	q, err := Open("", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Submit(Run{ID: "r", Jobs: []Job{job("li", "k1", ""), job("li", "k2", "")}}, nil); err != nil {
		t.Fatal(err)
	}
	row, err := q.DequeueRow(context.Background(), 0, 0)
	if err != nil || len(row) != 1 || row[0].Key != "k1" {
		t.Fatalf("DequeueRow(0, 0) = %v, %v; want [k1]", keys(row), err)
	}
	j, err := q.Dequeue(context.Background())
	if err != nil || j.Key != "k2" {
		t.Fatalf("Dequeue = %s, %v; want k2", j.Key, err)
	}
}

// With ways consumers, a row takes no more than a ways-th of the pending
// jobs, rounded up: a burst of one benchmark is split so that every
// consumer finds work, and the rows shrink as the backlog drains.
func TestDequeueRowSplitsBacklogAcrossWays(t *testing.T) {
	q, err := Open("", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var jobs []Job
	for i := range 9 {
		jobs = append(jobs, job("li", fmt.Sprintf("k%d", i), ""))
	}
	jobs = append(jobs, job("compress", "c", ""))
	if _, err := q.Submit(Run{ID: "burst", Jobs: jobs}, nil); err != nil {
		t.Fatal(err)
	}
	var got []string
	for q.Depth() > 0 {
		row, err := q.DequeueRow(context.Background(), 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, strings.Join(keys(row), ","))
	}
	// 10 pending: the width caps the row at 4; 6 pending: 3; then 2, 1.
	if rows, want := strings.Join(got, " | "), "k0,k1,k2,k3 | k4,k5,k6 | k7,k8 | c"; rows != want {
		t.Fatalf("rows %s, want %s", rows, want)
	}
}
