package core

import "repro/internal/mem"

// BufferOrg is a write-stage organization: the structure behind the store
// port that absorbs stores, answers load probes, selects retirement
// victims, and surrenders entries to hazard flushes and barrier drains.
// The paper's single coalescing FIFO (Buffer) is one organization; the
// FTL-style multi-buffer structure (FTL) and Jouppi's write cache
// (WriteCache) are others.  All *timing* — when retirements start, how
// long the L2 port is busy, what a stall costs — stays in internal/sim,
// which drives an organization through exactly these methods, so a new
// organization changes which entries move when, never how cycles are
// charged.
//
// Occupancy contract: an organization reports two occupancies.  Held is
// what an arriving store observes (it indexes the simulator's occupancy
// histogram); Occupancy is what the retirement engine can drain.  The
// FIFO and FTL return the same value for both.  A write cache holds lines
// that leave only by eviction, so its Held counts those lines while its
// Occupancy counts only the victim slot evictions pass through.
//
// Store contract: StoreAllocated means the state the retirement engine
// sees changed (the simulator restarts its retirement clock); StoreMerged
// means it did not; StoreBlocked means nothing changed and the store must
// wait for a retirement to complete.
//
// Retirement contract: BeginRetire returns the victim's block address,
// valid mask and allocation cycle as values — everything the retirement
// engine needs to time the write and apply it to L2 — so retiring copies
// no Entry and needs no AddrOf call.  HeadAllocCycle must report the same
// allocation cycle BeginRetire would return, without selecting anything.
// Flushes, far rarer, surrender whole Entry values that AddrOf converts.
//
// Index contract: Probe and Find return an opaque entry index that the
// simulator hands back unchanged to FlushThroughInto (flush everything the
// organization's ordering discipline requires to drain before and
// including that entry) or FlushOne (flush exactly that entry).  Indices
// are only valid until the next mutation, except that completing an
// in-flight retirement invalidates them too — the simulator re-Finds after
// CompleteRetire, exactly as it always has for the FIFO.
type BufferOrg interface {
	// Capacity is the total number of entries the organization can hold,
	// and so the most a FlushAllInto can return.
	Capacity() int
	// Occupancy returns the number of entries the retirement engine can
	// drain, including one mid-retirement.
	Occupancy() int
	// Held returns the number of entries an arriving store observes.
	Held() int
	// Retiring reports whether a retirement is currently in flight.
	Retiring() bool
	// HeadAllocCycle returns the AllocCycle of the entry BeginRetire would
	// select now — the age the aging retirement policies inspect.  It is
	// meaningless when empty (the FIFO returns a stale cycle, the other
	// organizations panic); the simulator always checks Occupancy first.
	HeadAllocCycle() uint64
	// Store applies a store at the given cycle: merge, allocate, or report
	// StoreBlocked so the simulator can charge a buffer-full stall (see the
	// store contract above).
	Store(addr mem.Addr, cycle uint64) StoreResult
	// Probe checks an L1 load miss for a hazard: whether addr's block is
	// active, and whether the addressed word itself is provably valid (only
	// then may read-from-WB forward it).  It records probe/hit statistics.
	Probe(addr mem.Addr) (idx int, wordValid, hit bool)
	// Find re-locates addr's entry without recording statistics, or -1.
	Find(addr mem.Addr) int
	// BeginRetire selects the organization's retirement victim and marks it
	// in flight, returning the victim block's base byte address, its Valid
	// mask and its AllocCycle — the three things a retirement needs, with
	// no Entry copy and no AddrOf call.  Panics when empty or already
	// retiring.
	BeginRetire() (addr mem.Addr, valid, alloc uint64)
	// CompleteRetire frees the in-flight victim.
	CompleteRetire()
	// FlushThroughInto removes the entry at idx and everything the
	// organization's ordering requires to drain before it, appending the
	// removed entries in writeback order to dst without allocating.
	FlushThroughInto(dst []Entry, idx int) []Entry
	// FlushAllInto removes every entry in writeback order, appending to dst.
	FlushAllInto(dst []Entry) []Entry
	// FlushOne removes exactly the entry at idx, preserving the rest.
	FlushOne(idx int) Entry
	// AddrOf reconstructs the base byte address of a flushed entry's block.
	AddrOf(e Entry) mem.Addr
	// FullLineMask is the Valid mask that proves every word of a cache line
	// is present (so an L2 write miss may skip its fetch-merge), or a value
	// no entry can reach when the organization's masks cannot prove it.
	FullLineMask() uint64
	// Stats returns a copy of the event counters.
	Stats() Stats
	// ResetStats zeroes the event counters without touching contents.
	ResetStats()
}

// OrgSpec describes a buffer organization to instantiate — the sweepable
// axis behind machconf's buffer.org block.  A nil spec everywhere in the
// tree means the paper's single coalescing FIFO; that default is never
// encoded, so configurations predating the organization axis keep their
// content hashes.
type OrgSpec interface {
	// OrgName is the registry kind ("ftl", …); "fifo" names the nil default.
	OrgName() string
	// ValidateOrg checks the spec against a buffer geometry.
	ValidateOrg(cfg Config) error
	// NewOrg builds the organization; it panics on an invalid combination
	// (callers validate first, as with NewBuffer).
	NewOrg(cfg Config) BufferOrg
}

// OrgSample is one organization-specific metric observation, exported
// through sim.PublishMetrics for organizations that implement OrgMetrics.
type OrgSample struct {
	// Name is the metric suffix ("mask_coalesces", "buf_allocations", …).
	Name string
	// Buf labels a per-buffer sample; -1 means an aggregate.
	Buf int
	// Gauge marks a level (current occupancy) rather than a running count.
	Gauge bool
	Value uint64
}

// OrgMetrics is implemented by organizations that keep counters beyond the
// shared Stats — per-buffer balance, mask-coalescing effectiveness.  The
// simulator publishes the samples once per run, never per instruction.
type OrgMetrics interface {
	// OrgSamples appends the organization's samples to dst and returns it.
	OrgSamples(dst []OrgSample) []OrgSample
}

// Interface-compliance methods for the ring Buffer: the FIFO is the
// degenerate organization whose victim is always the FIFO head.

// Capacity implements BufferOrg.
func (b *Buffer) Capacity() int { return b.cfg.Depth }

// Held implements BufferOrg: a store observes every FIFO entry.
func (b *Buffer) Held() int { return b.n }

// HeadAllocCycle implements BufferOrg: the FIFO's victim is its head, read
// straight from the allocation-cycle ring.
func (b *Buffer) HeadAllocCycle() uint64 { return b.alloc[b.head] }

// FlushThroughInto implements BufferOrg: everything ahead of the hit entry
// in FIFO order drains with it (the Alpha 21164 flush-partial discipline).
func (b *Buffer) FlushThroughInto(dst []Entry, idx int) []Entry {
	return b.FlushPrefixInto(dst, idx+1)
}

// FullLineMask implements BufferOrg: per-word valid bits prove a full line
// when every word of the line is marked.
func (b *Buffer) FullLineMask() uint64 {
	return FullMask(b.cfg.Geometry.WordsPerLine())
}

var _ BufferOrg = (*Buffer)(nil)
