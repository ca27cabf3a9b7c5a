package core

import (
	"fmt"

	"repro/internal/mem"
)

// WriteCache is the alternative write-stage organisation Jouppi proposed
// and the paper discusses in Section 5: instead of a FIFO queue that
// autonomously retires entries, a small fully associative cache of dirty
// lines with LRU replacement.  Data leaves a line only when an allocation
// must evict it (or a barrier drains the cache), so a write cache
// maximises coalescing and write-traffic aggregation at the price of
// keeping data un-written for much longer.
//
// As a BufferOrg it owns a one-entry victim slot: an evicted line parks
// there, and the victim slot is all the retirement engine sees (Occupancy,
// HeadAllocCycle, BeginRetire, CompleteRetire).  The lines themselves are
// what an arriving store observes (Held).  The simulator retires the
// victim eagerly, so the slot is the write cache's path to L2.
type WriteCache struct {
	cfg     Config
	entries []wcEntry
	held    int // valid lines
	stamp   uint64
	stats   Stats

	victim    Entry
	hasVictim bool
	retiring  bool

	tagShift  uint // log2(word bytes) + log2(WordsPerEntry)
	wordShift uint // log2(word bytes)
}

type wcEntry struct {
	Entry
	used  uint64
	valid bool
}

// NewWriteCache constructs a write cache of cfg.Depth lines; it panics on
// an invalid Config.
func NewWriteCache(cfg Config) *WriteCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	wordShift := mem.Log2(cfg.Geometry.WordBytes())
	return &WriteCache{
		cfg:       cfg,
		entries:   make([]wcEntry, cfg.Depth),
		tagShift:  wordShift + mem.Log2(cfg.WordsPerEntry),
		wordShift: wordShift,
	}
}

// Config returns the cache's configuration.
func (w *WriteCache) Config() Config { return w.cfg }

// Stats implements BufferOrg.  Allocations and Merges count line events;
// Retirements counts completed victim writes; Flushes counts the victim
// and the lines a drain removed.
func (w *WriteCache) Stats() Stats { return w.stats }

// ResetStats implements BufferOrg.
func (w *WriteCache) ResetStats() { w.stats = Stats{} }

// EntryTag maps a byte address to its entry tag.
func (w *WriteCache) EntryTag(addr mem.Addr) mem.Addr {
	return addr >> w.tagShift
}

func (w *WriteCache) wordMask(addr mem.Addr) uint64 {
	idx := int(addr>>w.wordShift) & (w.cfg.WordsPerEntry - 1)
	return 1 << uint(idx)
}

// Capacity implements BufferOrg: every line plus the victim slot.
func (w *WriteCache) Capacity() int { return w.cfg.Depth + 1 }

// Occupancy implements BufferOrg: the victim slot, the only entry the
// retirement engine drains.
func (w *WriteCache) Occupancy() int {
	if w.hasVictim {
		return 1
	}
	return 0
}

// Held implements BufferOrg: the dirty lines an arriving store observes.
func (w *WriteCache) Held() int { return w.held }

// Retiring implements BufferOrg.
func (w *WriteCache) Retiring() bool { return w.retiring }

// HeadAllocCycle implements BufferOrg: the victim's allocation cycle.
func (w *WriteCache) HeadAllocCycle() uint64 {
	if !w.hasVictim {
		panic("core: HeadAllocCycle of an empty victim slot")
	}
	return w.victim.AllocCycle
}

// FullLineMask implements BufferOrg.
func (w *WriteCache) FullLineMask() uint64 {
	return FullMask(w.cfg.Geometry.WordsPerLine())
}

// Store implements BufferOrg.  A merge into a line or a fill of a free
// line changes nothing the retirement engine sees and reports
// StoreMerged.  Otherwise the LRU line moves into the victim slot and the
// store takes its place (StoreAllocated) — unless the slot still holds the
// previous victim, in which case nothing changes and the store is
// StoreBlocked until that victim's write completes.
func (w *WriteCache) Store(addr mem.Addr, cycle uint64) StoreResult {
	tag := w.EntryTag(addr)
	var free, lru *wcEntry
	for i := range w.entries {
		e := &w.entries[i]
		if !e.valid {
			if free == nil {
				free = e
			}
			continue
		}
		if e.Tag == tag {
			e.Valid |= w.wordMask(addr)
			w.stamp++
			e.used = w.stamp
			w.stats.Merges++
			return StoreMerged
		}
		if lru == nil || e.used < lru.used {
			lru = e
		}
	}
	result := StoreMerged
	slot := free
	if slot == nil {
		if w.hasVictim {
			return StoreBlocked
		}
		w.victim, w.hasVictim = lru.Entry, true
		slot = lru
		result = StoreAllocated
	} else {
		w.held++
	}
	w.stamp++
	*slot = wcEntry{
		Entry: Entry{Tag: tag, Valid: w.wordMask(addr), AllocCycle: cycle},
		used:  w.stamp,
		valid: true,
	}
	w.stats.Allocations++
	return result
}

// Probe implements BufferOrg: the lines first, then the victim slot.  A
// line hit refreshes LRU state (the write cache services reads, so reads
// are uses).  The victim's index is Depth.
func (w *WriteCache) Probe(addr mem.Addr) (idx int, wordValid, hit bool) {
	w.stats.LoadProbes++
	tag := w.EntryTag(addr)
	for i := range w.entries {
		e := &w.entries[i]
		if e.valid && e.Tag == tag {
			w.stats.LoadHits++
			w.stamp++
			e.used = w.stamp
			return i, e.Valid&w.wordMask(addr) != 0, true
		}
	}
	if w.hasVictim && w.victim.Tag == tag {
		w.stats.LoadHits++
		return w.cfg.Depth, w.victim.Valid&w.wordMask(addr) != 0, true
	}
	return -1, false, false
}

// Find implements BufferOrg.
func (w *WriteCache) Find(addr mem.Addr) int {
	tag := w.EntryTag(addr)
	for i := range w.entries {
		if e := &w.entries[i]; e.valid && e.Tag == tag {
			return i
		}
	}
	if w.hasVictim && w.victim.Tag == tag {
		return w.cfg.Depth
	}
	return -1
}

// BeginRetire implements BufferOrg: the victim starts its write to L2.
func (w *WriteCache) BeginRetire() Entry {
	if !w.hasVictim {
		panic("core: BeginRetire on an empty victim slot")
	}
	if w.retiring {
		panic("core: BeginRetire while a retirement is in flight")
	}
	w.retiring = true
	return w.victim
}

// CompleteRetire implements BufferOrg: the victim slot is free again.
func (w *WriteCache) CompleteRetire() {
	if !w.retiring {
		panic("core: CompleteRetire without BeginRetire")
	}
	w.retiring = false
	w.hasVictim = false
	w.stats.Retirements++
}

// flushVictim appends the parked victim to dst and frees its slot.
func (w *WriteCache) flushVictim(dst []Entry) []Entry {
	if w.retiring {
		panic("core: flush during an in-flight retirement")
	}
	if w.hasVictim {
		dst = append(dst, w.victim)
		w.hasVictim = false
		w.stats.Flushes++
	}
	return dst
}

// flushLine appends line i to dst and frees it.
func (w *WriteCache) flushLine(dst []Entry, i int) []Entry {
	dst = append(dst, w.entries[i].Entry)
	w.entries[i].valid = false
	w.held--
	w.stats.Flushes++
	return dst
}

// FlushThroughInto implements BufferOrg.  Lines keep no order among
// themselves, so only the victim — older than every line — drains ahead
// of the entry at idx.
func (w *WriteCache) FlushThroughInto(dst []Entry, idx int) []Entry {
	dst = w.flushVictim(dst)
	if idx < w.cfg.Depth {
		dst = w.flushLine(dst, idx)
	}
	return dst
}

// FlushAllInto implements BufferOrg: the victim, then every line in LRU
// order (oldest first), appended to dst without allocating.
func (w *WriteCache) FlushAllInto(dst []Entry) []Entry {
	dst = w.flushVictim(dst)
	for w.held > 0 {
		oldest := -1
		for i := range w.entries {
			if w.entries[i].valid && (oldest < 0 || w.entries[i].used < w.entries[oldest].used) {
				oldest = i
			}
		}
		dst = w.flushLine(dst, oldest)
	}
	return dst
}

// FlushOne implements BufferOrg: exactly the line at idx, or the victim
// when idx is Depth.
func (w *WriteCache) FlushOne(idx int) Entry {
	var one [1]Entry
	if idx == w.cfg.Depth {
		return w.flushVictim(one[:0])[0]
	}
	return w.flushLine(one[:0], idx)[0]
}

// AddrOf implements BufferOrg.
func (w *WriteCache) AddrOf(e Entry) mem.Addr {
	return e.Tag << w.tagShift
}

// String summarises occupancy for diagnostics.
func (w *WriteCache) String() string {
	return fmt.Sprintf("write-cache(%d/%d dirty, victim %d)", w.held, w.cfg.Depth, w.Occupancy())
}

var _ BufferOrg = (*WriteCache)(nil)
