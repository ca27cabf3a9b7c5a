// Package cache implements the set-associative cache model used for the
// paper's L1 data cache, its finite second-level caches (Section 4.2), and
// the optional instruction cache of Section 4.3.
//
// The model is a tag store only: the simulator cares about hits, misses,
// evictions, and dirtiness, never about data contents (the machine model
// charges fixed latencies per access).  Replacement is true LRU within a
// set, which for the paper's direct-mapped configurations degenerates to
// plain replacement.
package cache

import (
	"fmt"
	"slices"

	"repro/internal/mem"
)

// Config describes a cache.
type Config struct {
	// SizeBytes is the total capacity.  Must be a power of two.
	SizeBytes int
	// LineBytes is the block size.  Must be a power of two.
	LineBytes int
	// Assoc is the set associativity; 1 means direct-mapped.  Must divide
	// SizeBytes/LineBytes and be a power of two for the index math.
	Assoc int
}

// Validate checks geometric consistency.
func (c Config) Validate() error {
	if !mem.IsPow2(c.SizeBytes) {
		return fmt.Errorf("cache: size %d not a power of two", c.SizeBytes)
	}
	if !mem.IsPow2(c.LineBytes) {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.Assoc < 1 {
		return fmt.Errorf("cache: associativity %d < 1", c.Assoc)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines < 1 {
		return fmt.Errorf("cache: size %d smaller than line %d", c.SizeBytes, c.LineBytes)
	}
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	if sets := lines / c.Assoc; !mem.IsPow2(sets) {
		return fmt.Errorf("cache: %d sets not a power of two", sets)
	}
	return nil
}

// Line identifies a resident or evicted block.
type Line struct {
	Addr  mem.Addr // base byte address of the block
	Dirty bool
}

type way struct {
	tag   mem.Addr // full line tag (address >> lineShift)
	valid bool
	dirty bool
	used  uint64 // LRU stamp; larger = more recently used
}

// Stats counts cache activity.  Reads and writes are tallied separately so
// the experiment harness can report the paper's load-only hit rates.
type Stats struct {
	ReadAccesses   uint64
	ReadHits       uint64
	WriteAccesses  uint64
	WriteHits      uint64
	Evictions      uint64
	DirtyEvictions uint64
	Invalidations  uint64
}

// ReadHitRate returns read hits as a fraction of read accesses (1.0 when
// there were no accesses, matching a perfect cache).
func (s Stats) ReadHitRate() float64 {
	if s.ReadAccesses == 0 {
		return 1
	}
	return float64(s.ReadHits) / float64(s.ReadAccesses)
}

// WriteHitRate returns write hits as a fraction of write accesses.
func (s Stats) WriteHitRate() float64 {
	if s.WriteAccesses == 0 {
		return 1
	}
	return float64(s.WriteHits) / float64(s.WriteAccesses)
}

// Cache is a set-associative tag store with LRU replacement.  The ways of
// all sets live in one flat array — set s occupies ways[s*assoc:(s+1)*assoc]
// — so a lookup is a mask, a multiply, and a short scan, with no slice-of-
// slices indirection on the simulator's hot path.  Direct-mapped lookups
// (every paper L1 configuration) take a branch-free single-way fast path.
type Cache struct {
	cfg       Config
	ways      []way
	assoc     int
	setMask   mem.Addr
	lineShift uint
	stamp     uint64
	stats     Stats
}

// New constructs a cache; it panics on an invalid Config because every
// configuration in this repository is statically chosen.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc
	return &Cache{
		cfg:       cfg,
		ways:      make([]way, nSets*cfg.Assoc),
		assoc:     cfg.Assoc,
		setMask:   mem.Addr(nSets - 1),
		lineShift: mem.Log2(cfg.LineBytes),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without disturbing cache contents, so a
// warm-up phase can be excluded from measurement.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// find returns the resident way holding tag, or nil.  The assoc==1 branch
// lets the compiler drop the loop entirely for direct-mapped caches.
func (c *Cache) find(tag mem.Addr) *way {
	if c.assoc == 1 {
		w := &c.ways[int(tag&c.setMask)]
		if w.valid && w.tag == tag {
			return w
		}
		return nil
	}
	base := int(tag&c.setMask) * c.assoc
	set := c.ways[base : base+c.assoc]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// Probe reports whether addr's block is resident without touching LRU state
// or statistics.
func (c *Cache) Probe(addr mem.Addr) bool {
	return c.find(addr>>c.lineShift) != nil
}

// Read performs a demand read access: on a hit the block's LRU position is
// refreshed and Read returns true; on a miss it returns false and the
// caller decides whether to Fill.
func (c *Cache) Read(addr mem.Addr) bool {
	c.stats.ReadAccesses++
	if w := c.find(addr >> c.lineShift); w != nil {
		c.stats.ReadHits++
		if c.assoc > 1 { // LRU bookkeeping is meaningless direct-mapped
			c.stamp++
			w.used = c.stamp
		}
		return true
	}
	return false
}

// WriteHit performs a write access that updates the block only if resident
// (write-through / write-around semantics: no allocation on miss).  It
// reports whether the block was resident.  Resident blocks are NOT marked
// dirty: with write-through, the next level receives the data via the
// write buffer, so the L1 copy is never the only one.
func (c *Cache) WriteHit(addr mem.Addr) bool {
	c.stats.WriteAccesses++
	if w := c.find(addr >> c.lineShift); w != nil {
		c.stats.WriteHits++
		if c.assoc > 1 {
			c.stamp++
			w.used = c.stamp
		}
		return true
	}
	return false
}

// WriteAllocate performs a write-back, write-allocate write access, as used
// by the L2 when the write buffer retires an entry into it.  It returns the
// hit flag and, on a miss that displaced a valid block, the evicted line.
func (c *Cache) WriteAllocate(addr mem.Addr) (hit bool, evicted Line, hasEvict bool) {
	c.stats.WriteAccesses++
	tag := addr >> c.lineShift
	if w := c.find(tag); w != nil {
		c.stats.WriteHits++
		if c.assoc > 1 {
			c.stamp++
			w.used = c.stamp
		}
		w.dirty = true
		return true, Line{}, false
	}
	evicted, hasEvict = c.fill(tag, true)
	return false, evicted, hasEvict
}

// Fill inserts addr's block (after a demand-read miss) and returns the
// displaced line, if any.
func (c *Cache) Fill(addr mem.Addr) (evicted Line, hasEvict bool) {
	tag := addr >> c.lineShift
	if c.find(tag) != nil {
		// Already resident — fills are idempotent so callers need not
		// track races between probe and fill.
		return Line{}, false
	}
	return c.fill(tag, false)
}

func (c *Cache) fill(tag mem.Addr, dirty bool) (evicted Line, hasEvict bool) {
	base := int(tag&c.setMask) * c.assoc
	set := c.ways[base : base+c.assoc]
	victim := &set[0]
	for i := range set {
		w := &set[i]
		if !w.valid {
			victim = w
			break
		}
		if w.used < victim.used {
			victim = w
		}
	}
	if victim.valid {
		c.stats.Evictions++
		if victim.dirty {
			c.stats.DirtyEvictions++
		}
		evicted = Line{Addr: victim.tag << c.lineShift, Dirty: victim.dirty}
		hasEvict = true
	}
	c.stamp++
	*victim = way{tag: tag, valid: true, dirty: dirty, used: c.stamp}
	return evicted, hasEvict
}

// Invalidate removes addr's block if resident (used to maintain inclusion
// when an enclosing L2 evicts).  It reports whether a block was removed and
// whether that block was dirty.
func (c *Cache) Invalidate(addr mem.Addr) (removed, wasDirty bool) {
	if w := c.find(addr >> c.lineShift); w != nil {
		c.stats.Invalidations++
		wasDirty = w.dirty
		*w = way{}
		return true, wasDirty
	}
	return false, false
}

// CopyFrom makes c an exact copy of src: contents, LRU order, and
// statistics.  It panics when the two caches have different geometries.
func (c *Cache) CopyFrom(src *Cache) {
	if c.cfg != src.cfg {
		panic(fmt.Sprintf("cache: CopyFrom %+v into %+v", src.cfg, c.cfg))
	}
	copy(c.ways, src.ways)
	c.stamp, c.stats = src.stamp, src.stats
}

// Equal reports whether c and o are in the same state: geometry,
// contents, LRU order, and statistics.  Two equal caches answer every
// future access sequence identically.
func (c *Cache) Equal(o *Cache) bool {
	return c.cfg == o.cfg && c.stamp == o.stamp && c.stats == o.stats && slices.Equal(c.ways, o.ways)
}

// Occupancy returns how many valid lines the cache currently holds; handy
// for tests and invariant checks.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.ways {
		if c.ways[i].valid {
			n++
		}
	}
	return n
}
