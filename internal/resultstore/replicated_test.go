package resultstore_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/resultstore"
)

func openReplicated(t *testing.T, dirs []string, reg *metrics.Registry) *resultstore.Store {
	t.Helper()
	r, err := resultstore.OpenDirs(dirs, resultstore.Options{Metrics: reg, MemoryEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// corruptRecord flips a payload byte of one record in place, keeping the
// record parseable so only the checksum catches it.
func corruptRecord(t *testing.T, dir string, rec record) {
	t.Helper()
	rewriteRecord(t, dir, rec, func(line []byte) {
		i := bytes.Index(line, []byte(`"cpi":`))
		if i < 0 {
			garble(line)
			return
		}
		line[i+6] = '9' - (line[i+6]-'0'+1)%2 // a different digit
	})
}

func TestReplicatedPutMirrorsAllReplicas(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	r := openReplicated(t, []string{dirA, dirB}, nil)
	key := resultstore.Key("li", 1000, "aa")
	if err := r.Put(key, "aa", []byte(`{"cpi":1.5}`)); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{dirA, dirB} {
		if got := records(t, dir); len(got) != 1 {
			t.Errorf("replica %s holds %d entries, want 1", dir, len(got))
		}
	}
	if got, ok := r.Get(key); !ok || string(got) != `{"cpi":1.5}` {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

// A corrupt copy in the first replica must never be served: the healthy
// second replica answers, the corrupt copy is quarantined, and read-repair
// rewrites it — all within one Get.
func TestReplicatedReadRepair(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	key := resultstore.Key("li", 1000, "aa")
	{
		r := openReplicated(t, []string{dirA, dirB}, nil)
		if err := r.Put(key, "aa", []byte(`{"cpi":1.5}`)); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	corruptRecord(t, dirA, records(t, dirA)[0])

	reg := metrics.NewRegistry()
	fresh, err := resultstore.OpenDirs([]string{dirA, dirB}, resultstore.Options{Metrics: reg, MemoryEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	got, ok := fresh.Get(key)
	if !ok || string(got) != `{"cpi":1.5}` {
		t.Fatalf("Get through corrupt first replica = %q, %v", got, ok)
	}
	if n := reg.Counter("sim_store_repair_total").Value(); n != 1 {
		t.Errorf("repairs = %d, want 1 (read-repair)", n)
	}
	// The repaired copy in replica A must be healthy again.
	rep := fresh.Scrub()
	if rep.Entries != 1 || rep.Healthy != 1 || rep.CorruptCopies != 0 {
		t.Errorf("post-repair scrub = %+v, want 1 healthy entry", rep)
	}
	// The corrupt original was preserved for inspection.
	if _, err := os.Stat(filepath.Join(dirA, resultstore.QuarantineDir)); err != nil {
		t.Error("corrupt copy was not quarantined")
	}
}

func TestReplicatedScrubRepairsBitrot(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	reg := metrics.NewRegistry()
	r := openReplicated(t, []string{dirA, dirB}, reg)
	var keys []string
	for i := 0; i < 5; i++ {
		k := resultstore.Key("li", uint64(1000+i), "aa")
		keys = append(keys, k)
		if err := r.Put(k, "aa", []byte(fmt.Sprintf(`{"cpi":1.%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	victims := records(t, dirB)
	corruptRecord(t, dirB, victims[0])
	corruptRecord(t, dirB, victims[1])

	rep := r.Scrub()
	if rep.Entries != 5 || rep.CorruptCopies != 2 || rep.Repaired != 2 || rep.Unrecoverable != 0 {
		t.Fatalf("scrub = %+v, want 5 entries, 2 corrupt, 2 repaired", rep)
	}
	if n := reg.Counter("sim_store_scrub_corrupt_total").Value(); n != 2 {
		t.Errorf("sim_store_scrub_corrupt_total = %d, want 2", n)
	}
	// A second pass finds everything healthy.
	rep = r.Scrub()
	if rep.Healthy != 5 || rep.CorruptCopies != 0 || rep.Repaired != 0 {
		t.Errorf("second scrub = %+v, want 5 healthy", rep)
	}
	for _, k := range keys {
		if _, ok := r.Get(k); !ok {
			t.Errorf("key %s lost after scrub", k)
		}
	}
}

// Deleting a replica wholesale — the disk died — must heal entirely from
// the surviving replica, without re-simulating anything.
func TestReplicatedWholeReplicaLoss(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	r := openReplicated(t, []string{dirA, dirB}, nil)
	for i := 0; i < 4; i++ {
		k := resultstore.Key("go", uint64(i), "bb")
		if err := r.Put(k, "bb", []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.RemoveAll(dirB); err != nil {
		t.Fatal(err)
	}
	rep := r.Scrub()
	if rep.MissingCopies != 4 || rep.Repaired != 4 || rep.Unrecoverable != 0 {
		t.Fatalf("scrub after replica loss = %+v, want 4 missing, 4 repaired", rep)
	}
	if got := records(t, dirB); len(got) != 4 {
		t.Errorf("rebuilt replica holds %d entries, want 4", len(got))
	}
	rep = r.Scrub()
	if rep.Healthy != 4 {
		t.Errorf("post-heal scrub = %+v, want 4 healthy", rep)
	}
}

// When every copy of an entry is corrupt there is nothing to repair from:
// the copies are quarantined, the entry counts unrecoverable, and the next
// Get is an honest miss (the job re-simulates).
func TestReplicatedUnrecoverableEntry(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	key := resultstore.Key("li", 7, "cc")
	{
		r := openReplicated(t, []string{dirA, dirB}, nil)
		if err := r.Put(key, "cc", []byte(`{"cpi":2.5}`)); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	corruptRecord(t, dirA, records(t, dirA)[0])
	corruptRecord(t, dirB, records(t, dirB)[0])

	fresh := openReplicated(t, []string{dirA, dirB}, nil)
	rep := fresh.Scrub()
	if rep.Unrecoverable != 1 || rep.CorruptCopies != 2 {
		t.Fatalf("scrub = %+v, want 1 unrecoverable from 2 corrupt copies", rep)
	}
	if _, ok := fresh.Get(key); ok {
		t.Error("unrecoverable entry served as a hit")
	}
}

func TestReplicatedEvictHashAndPrune(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	r := openReplicated(t, []string{dirA, dirB}, nil)
	r.Put(resultstore.Key("li", 1, "bad"), "bad", []byte(`{}`))
	r.Put(resultstore.Key("li", 1, "good"), "good", []byte(`{}`))
	n, err := r.EvictHash("bad")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // one copy per replica
		t.Errorf("EvictHash removed %d copies, want 2", n)
	}
	if _, ok := r.Get(resultstore.Key("li", 1, "bad")); ok {
		t.Error("evicted entry still served")
	}
	if _, ok := r.Get(resultstore.Key("li", 1, "good")); !ok {
		t.Error("unrelated entry evicted")
	}
	removed, err := r.Prune(0)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Errorf("Prune removed %d copies, want 2", removed)
	}
	if d, _, _ := r.Stats(); d != 0 {
		t.Errorf("entries after full prune = %d, want 0", d)
	}
}

// Prune must remove the SAME victim set from every replica even when copy
// write times disagree — exactly what repair and read-repair appends
// produce.
// Independent per-replica pruning would sort each replica differently,
// keep different survivors, and the next scrub would "heal" every victim
// back from the replica that kept it: the bound would never converge.
func TestReplicatedPruneConvergesAcrossSkewedMtimes(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	reg := metrics.NewRegistry()
	r := openReplicated(t, []string{dirA, dirB}, reg)
	var keys []string
	for i := 0; i < 4; i++ {
		k := resultstore.Key("li", uint64(1000+i), "aa")
		keys = append(keys, k)
		if err := r.Put(k, "aa", []byte(fmt.Sprintf(`{"cpi":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	// Skew the copies so each replica, sorted alone, would pick a different
	// oldest entry: replica A ages keys[0] hardest, replica B ages keys[3].
	// (A read-repair into A gives A's copy a new write time without
	// touching B's — this is that state, constructed directly.)
	base := time.Now().Add(-time.Hour)
	stampsA := []time.Duration{0, 10 * time.Minute, 20 * time.Minute, 30 * time.Minute}
	stampsB := []time.Duration{35 * time.Minute, 10 * time.Minute, 20 * time.Minute, 0}
	stamp := func(dir string, stamps []time.Duration) {
		t.Helper()
		if n := len(records(t, dir)); n != 4 {
			t.Fatalf("replica %s holds %d entries, want 4", dir, n)
		}
		for i, k := range keys {
			stampWriteTime(t, dir, k, base.Add(stamps[i]))
		}
	}
	stamp(dirA, stampsA)
	stamp(dirB, stampsB)
	r = openReplicated(t, []string{dirA, dirB}, reg) // read the stamped times

	removed, err := r.Prune(3)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 { // one victim entry × two replicas
		t.Errorf("Prune removed %d copies, want 2", removed)
	}
	names := func(dir string) map[string]bool {
		out := map[string]bool{}
		for _, rec := range records(t, dir) {
			out[rec.addr()] = true
		}
		return out
	}
	nA, nB := names(dirA), names(dirB)
	if len(nA) != 3 || len(nB) != 3 {
		t.Fatalf("survivors per replica = %d/%d, want 3/3", len(nA), len(nB))
	}
	for n := range nA {
		if !nB[n] {
			t.Errorf("replicas diverged after prune: %s survives in A but not B", n)
		}
	}
	// The scrubber must find nothing to heal: identical survivor sets mean
	// zero missing copies and zero repairs — pruned entries stay pruned.
	rep := r.Scrub()
	if rep.MissingCopies != 0 || rep.Repaired != 0 {
		t.Errorf("scrub after prune = %+v, want no missing copies and no repairs (prune+scrub must not ping-pong)", rep)
	}
	if rep.Entries != 3 {
		t.Errorf("scrub saw %d entries after prune, want 3", rep.Entries)
	}
	// Convergence: the bound already holds, so a second pass is a no-op.
	if again, err := r.Prune(3); err != nil || again != 0 {
		t.Errorf("second Prune removed %d (err %v), want 0", again, err)
	}
}

// Close must stop the scrubber goroutine: no leak, and Close is idempotent
// and safe concurrently with a running pass.
func TestReplicatedScrubberShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	r, err := resultstore.OpenDirs([]string{t.TempDir(), t.TempDir()}, resultstore.Options{
		MemoryEntries: 8,
		ScrubInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Put(resultstore.Key("li", 1, "h"), "h", []byte(`{}`))
	time.Sleep(20 * time.Millisecond) // let a few passes run
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines after Close = %d, was %d before Open — scrubber leaked", now, before)
	}
	_, when, passes := r.LastScrub()
	if passes == 0 || when.IsZero() {
		t.Errorf("scrubber never ran: passes = %d", passes)
	}
}

// Put/Get racing Verify, Prune, EvictHash, and Scrub — run under -race in
// CI.  Correctness bar: no data race, and every key written before the
// maintenance storm is still served afterwards.
func TestReplicatedConcurrentMaintenance(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	r := openReplicated(t, dirs, nil)
	const keys = 32
	for i := 0; i < keys; i++ {
		k := resultstore.Key("li", uint64(i), "hot")
		if err := r.Put(k, "hot", []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					fn(i)
				}
			}
		}()
	}
	worker(func(i int) { r.Get(resultstore.Key("li", uint64(i%keys), "hot")) })
	worker(func(i int) {
		r.Put(resultstore.Key("compress", uint64(i%keys), "cold"), "cold", []byte(`{}`))
	})
	worker(func(int) { r.Verify() })
	worker(func(int) { r.Scrub() })
	worker(func(int) { r.Prune(10 * keys) }) // bound above population: exercise scan, remove nothing
	worker(func(int) { r.EvictHash("absent") })
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	for i := 0; i < keys; i++ {
		if _, ok := r.Get(resultstore.Key("li", uint64(i), "hot")); !ok {
			t.Errorf("key %d lost during concurrent maintenance", i)
		}
	}
}

// Store satisfies the surface the dispatch layer consumes.
var _ resultstore.KV = (*resultstore.Store)(nil)
