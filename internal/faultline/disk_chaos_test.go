package faultline

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/metrics"
	"repro/internal/resultstore"
)

// The disk-fault chaos contract: a sweep through the replicated store
// under every disk-fault scenario — and under whole-replica loss — must
// produce byte-identical results to a fault-free run, the scrubber must
// heal every surviving copy, and a second process over the same store must
// dispatch zero simulations (repairs come from replicas, never from
// re-execution).

// scrubUntilClean runs scrub passes until the store reports every entry
// healthy in every replica (ENOSPC budgets can make the first repair
// attempt fail), bounded so a non-converging scrubber fails loudly.
func scrubUntilClean(t *testing.T, store *resultstore.Store) resultstore.ScrubReport {
	t.Helper()
	var rep resultstore.ScrubReport
	for i := 0; i < 5; i++ {
		rep = store.Scrub()
		if rep.Healthy == rep.Entries && rep.Unrecoverable == 0 {
			return rep
		}
	}
	t.Fatalf("scrubber failed to converge: %+v", rep)
	return rep
}

func TestChaosDiskFaultParity(t *testing.T) {
	want := localJSON(t)
	for _, sc := range DiskScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			dir := t.TempDir()
			dirA, dirB := filepath.Join(dir, "replicaA"), filepath.Join(dir, "replicaB")
			// Confine faults to the FIRST replica: reads hit the sick copy
			// before the healthy one, so first-healthy-copy-wins, read-repair,
			// and the scrubber are all genuinely on the hook.
			sc.Root = dirA
			inj := NewDiskInjector(sc)
			reg := metrics.NewRegistry()
			// MemoryEntries 1: every Get goes to disk, so read-side faults
			// actually fire instead of being absorbed by the memory tier.
			store, err := resultstore.OpenDirs([]string{dirA, dirB}, resultstore.Options{
				Metrics: reg, Disk: inj, MemoryEntries: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()

			cached := dispatch.NewCached(&dispatch.Local{}, store, reg)
			if n := platformPump(t, cached, store, filepath.Join(dir, "queue.jsonl"), reg, 0); n != chaosJobs {
				t.Fatalf("pump completed %d jobs, want %d", n, chaosJobs)
			}
			if got := matrixFromStore(t, store); !bytes.Equal(want, got) {
				t.Errorf("results under %s differ from fault-free run", sc.Name)
			}
			if inj.Injected() == 0 {
				t.Fatalf("scenario %s injected nothing — the parity pass is vacuous", sc.Name)
			}

			// The scrubber heals every copy the faults damaged.
			rep := scrubUntilClean(t, store)
			if rep.Entries != chaosJobs {
				t.Errorf("scrub saw %d entries, want %d", rep.Entries, chaosJobs)
			}

			// Second process over the healed store: zero simulations
			// dispatched, byte-identical assembly — with the injector still
			// wired in (its budgets are spent; the disk has "recovered").
			reg2 := metrics.NewRegistry()
			store2, err := resultstore.OpenDirs([]string{dirA, dirB}, resultstore.Options{
				Metrics: reg2, Disk: inj, MemoryEntries: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer store2.Close()
			cached2 := dispatch.NewCached(&dispatch.Local{}, store2, reg2)
			platformPump(t, cached2, store2, filepath.Join(dir, "queue2.jsonl"), reg2, 0)
			if got := matrixFromStore(t, store2); !bytes.Equal(want, got) {
				t.Errorf("second-process results differ under %s", sc.Name)
			}
			if n := reg2.Counter("dispatch_store_misses_total").Value(); n != 0 {
				t.Errorf("second process dispatched %d simulations, want 0", n)
			}
		})
	}
}

// Whole-replica loss: rm -rf one replica after a clean sweep.  A fresh
// process over the same spec must replay with zero simulations (the
// surviving replica answers every read) and one scrub pass must rebuild
// the lost replica record for record.
func TestChaosReplicaLossParity(t *testing.T) {
	want := localJSON(t)
	dir := t.TempDir()
	dirA, dirB := filepath.Join(dir, "replicaA"), filepath.Join(dir, "replicaB")
	reg := metrics.NewRegistry()
	store, err := resultstore.OpenDirs([]string{dirA, dirB}, resultstore.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	cached := dispatch.NewCached(&dispatch.Local{}, store, reg)
	if n := platformPump(t, cached, store, filepath.Join(dir, "queue.jsonl"), reg, 0); n != chaosJobs {
		t.Fatalf("pump completed %d jobs, want %d", n, chaosJobs)
	}
	store.Close()

	// The first replica's disk dies entirely.
	if err := os.RemoveAll(dirA); err != nil {
		t.Fatal(err)
	}

	reg2 := metrics.NewRegistry()
	store2, err := resultstore.OpenDirs([]string{dirA, dirB}, resultstore.Options{Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	cached2 := dispatch.NewCached(&dispatch.Local{}, store2, reg2)
	platformPump(t, cached2, store2, filepath.Join(dir, "queue2.jsonl"), reg2, 0)
	if got := matrixFromStore(t, store2); !bytes.Equal(want, got) {
		t.Error("results after replica loss differ from fault-free run")
	}
	if n := reg2.Counter("dispatch_store_misses_total").Value(); n != 0 {
		t.Errorf("replica loss caused %d re-simulations, want 0", n)
	}

	// matrixFromStore's reads already repaired the lost replica entry by
	// entry; one scrub pass must account for every entry and finish the job.
	rep := store2.Scrub()
	if rep.Entries != chaosJobs || rep.Unrecoverable != 0 {
		t.Fatalf("scrub after replica loss = %+v, want %d entries, none unrecoverable", rep, chaosJobs)
	}
	if rep = store2.Scrub(); rep.Healthy != chaosJobs {
		t.Errorf("rebuilt store not fully healthy: %+v", rep)
	}
	// The rebuilt replica's log holds every entry.
	data, err := os.ReadFile(filepath.Join(dirA, resultstore.LogName))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != chaosJobs {
		t.Errorf("rebuilt replica holds %d entries, want %d", n, chaosJobs)
	}
}
