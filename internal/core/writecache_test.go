package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func newWC(depth int) *WriteCache {
	cfg := DefaultConfig()
	cfg.Depth = depth
	return NewWriteCache(cfg)
}

// retire writes the parked victim out, as the simulator's eager
// retirement would, and returns it.
func retire(w *WriteCache) Entry {
	addr, valid, alloc := w.BeginRetire()
	w.CompleteRetire()
	return Entry{Tag: w.EntryTag(addr), Valid: valid, AllocCycle: alloc}
}

func TestWriteCacheStoreMergeAllocate(t *testing.T) {
	w := newWC(2)
	if r := w.Store(0x100, 1); r != StoreMerged {
		t.Fatalf("free-line fill = %v, want StoreMerged (no retirement-visible change)", r)
	}
	if r := w.Store(0x108, 2); r != StoreMerged {
		t.Fatalf("same-line store = %v, want StoreMerged", r)
	}
	s := w.Stats()
	if s.Allocations != 1 || s.Merges != 1 {
		t.Fatalf("stats = %+v, want 1 alloc + 1 merge", s)
	}
	if w.Held() != 1 || w.Occupancy() != 0 {
		t.Fatalf("held/occupancy = %d/%d, want 1/0", w.Held(), w.Occupancy())
	}
}

func TestWriteCacheNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWriteCache with depth 0 did not panic")
		}
	}()
	NewWriteCache(Config{Depth: 0, WordsPerEntry: 4, Geometry: mem.DefaultGeometry})
}

// An eviction moves the LRU line into the victim slot; a second eviction
// while that slot is occupied blocks without changing anything.
func TestWriteCacheLRUEviction(t *testing.T) {
	w := newWC(2)
	w.Store(0x000, 1) // A
	w.Store(0x040, 2) // B; A is now LRU
	w.Store(0x008, 3) // touch A: B becomes LRU
	if r := w.Store(0x080, 4); r != StoreAllocated {
		t.Fatalf("eviction = %v, want StoreAllocated", r)
	}
	if w.Held() != 2 || w.Occupancy() != 1 || w.HeadAllocCycle() != 2 {
		t.Fatalf("held/occupancy/head alloc = %d/%d/%d, want 2/1/2",
			w.Held(), w.Occupancy(), w.HeadAllocCycle())
	}
	if idx, wordValid, hit := w.Probe(0x040); !hit || !wordValid || idx != 2 {
		t.Fatalf("probe of the victim = (%d,%v,%v), want (2,true,true)", idx, wordValid, hit)
	}

	before := w.Stats()
	if r := w.Store(0x0c0, 5); r != StoreBlocked {
		t.Fatalf("eviction with an occupied victim slot = %v, want StoreBlocked", r)
	}
	if w.Stats() != before || w.Find(0x0c0) != -1 || w.Held() != 2 {
		t.Fatal("a blocked store mutated the cache")
	}

	victim := retire(w)
	if victim.Tag != w.EntryTag(0x040) {
		t.Fatalf("evicted tag %#x, want B's (LRU)", victim.Tag)
	}
	if victim.Valid != 0b0001 {
		t.Fatalf("victim valid mask = %04b, want 0001", victim.Valid)
	}
	if w.Stats().Retirements != 1 || w.Occupancy() != 0 {
		t.Fatal("completed victim write not counted as a retirement")
	}
	if r := w.Store(0x0c0, 6); r != StoreAllocated {
		t.Fatalf("store after the victim retired = %v, want StoreAllocated", r)
	}
}

func TestWriteCacheProbeRefreshesLRU(t *testing.T) {
	w := newWC(2)
	w.Store(0x000, 1) // A
	w.Store(0x040, 2) // B
	// Read A: A becomes MRU, so the next eviction takes B.
	if _, wordValid, hit := w.Probe(0x000); !hit || !wordValid {
		t.Fatalf("probe of stored word = (%v,%v)", wordValid, hit)
	}
	w.Store(0x080, 3)
	if victim := retire(w); victim.Tag != w.EntryTag(0x040) {
		t.Fatal("probe did not refresh LRU order")
	}
}

func TestWriteCacheProbeWordInvalid(t *testing.T) {
	w := newWC(2)
	w.Store(0x100, 1)
	_, wordValid, hit := w.Probe(0x118) // same line, unwritten word
	if !hit || wordValid {
		t.Fatalf("probe = (%v,%v), want block hit with invalid word", wordValid, hit)
	}
	if _, _, hit := w.Probe(0x200); hit {
		t.Fatal("probe of absent block hit")
	}
	s := w.Stats()
	if s.LoadProbes != 2 || s.LoadHits != 1 {
		t.Fatalf("probe stats = %+v", s)
	}
}

// FlushAllInto drains the victim first, then the lines oldest-use first.
func TestWriteCacheDrainAllLRUOrder(t *testing.T) {
	w := newWC(3)
	w.Store(0x000, 1) // A
	w.Store(0x040, 2) // B
	w.Store(0x080, 3) // C
	w.Store(0x008, 4) // touch A last
	w.Store(0x0c0, 5) // D evicts B into the victim slot
	drained := w.FlushAllInto(make([]Entry, 0, w.Capacity()))
	want := []mem.Addr{0x040, 0x080, 0x000, 0x0c0}
	if len(drained) != len(want) {
		t.Fatalf("drained %d entries, want %d", len(drained), len(want))
	}
	for i, a := range want {
		if drained[i].Tag != w.EntryTag(a) {
			t.Fatalf("drain order wrong at %d: got tag %#x, want %#x", i, drained[i].Tag, w.EntryTag(a))
		}
	}
	if w.Held() != 0 || w.Occupancy() != 0 {
		t.Fatal("cache not empty after drain")
	}
	if w.Stats().Flushes != 4 {
		t.Fatal("drained entries not counted as flushes")
	}
}

// FlushOne and FlushThroughInto remove the addressed entry; the victim
// drains ahead of any line.
func TestWriteCacheFlushOneAndThrough(t *testing.T) {
	w := newWC(2)
	w.Store(0x000, 1) // A
	w.Store(0x040, 2) // B
	w.Store(0x080, 3) // C evicts A
	if e := w.FlushOne(w.Find(0x040)); e.Tag != w.EntryTag(0x040) || w.Held() != 1 {
		t.Fatalf("FlushOne removed tag %#x, held %d", e.Tag, w.Held())
	}
	got := w.FlushThroughInto(nil, w.Find(0x080))
	if len(got) != 2 || got[0].Tag != w.EntryTag(0x000) || got[1].Tag != w.EntryTag(0x080) {
		t.Fatalf("FlushThroughInto = %v, want victim A then C", got)
	}
	if w.Held() != 0 || w.Occupancy() != 0 || w.Stats().Flushes != 3 {
		t.Fatalf("after flushes: held %d, occupancy %d, stats %+v", w.Held(), w.Occupancy(), w.Stats())
	}
}

func TestWriteCacheAddrOfAndString(t *testing.T) {
	w := newWC(2)
	w.Store(0x12348, 1)
	if !strings.Contains(w.String(), "1/2") {
		t.Errorf("String = %q", w.String())
	}
	e := w.FlushOne(w.Find(0x12348))
	if got := w.AddrOf(e); got != 0x12340 {
		t.Errorf("AddrOf = %#x, want 0x12340", got)
	}
	if !strings.Contains(w.String(), "0/2") {
		t.Errorf("String = %q", w.String())
	}
}

// Property: held lines never exceed depth; an eviction happens only when a
// store misses a full cache with a free victim slot, and a store blocks
// only when the slot is taken; every allocation is accounted for.
func TestWriteCacheInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		w := newWC(4)
		for _, op := range ops {
			if op%5 == 0 && w.Occupancy() == 1 {
				retire(w)
			}
			addr := mem.Addr(op%96) * 8
			wasFull, hadVictim := w.Held() == 4, w.Occupancy() == 1
			switch w.Store(addr, uint64(op)) {
			case StoreAllocated:
				if !wasFull || hadVictim {
					return false
				}
			case StoreBlocked:
				if !wasFull || !hadVictim {
					return false
				}
			}
			if w.Held() > 4 {
				return false
			}
		}
		s := w.Stats()
		return s.Allocations == s.Retirements+s.Flushes+uint64(w.Held()+w.Occupancy())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a store followed by a probe of the same word always hits with
// the word valid, whatever came before.
func TestWriteCacheStoreThenProbeProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		w := newWC(4)
		for _, a := range addrs {
			addr := mem.Addr(a) &^ 7
			if w.Store(addr, 0) == StoreBlocked {
				retire(w)
				w.Store(addr, 0)
			}
			_, wordValid, hit := w.Probe(addr)
			if !hit || !wordValid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
