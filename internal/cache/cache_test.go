package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func small() *Cache {
	// 4 lines of 32 B, direct-mapped: sets index with bits [6:5].
	return New(Config{SizeBytes: 128, LineBytes: 32, Assoc: 1})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 100, LineBytes: 32, Assoc: 1},
		{SizeBytes: 128, LineBytes: 30, Assoc: 1},
		{SizeBytes: 128, LineBytes: 32, Assoc: 0},
		{SizeBytes: 128, LineBytes: 32, Assoc: 3},
		{SizeBytes: 16, LineBytes: 32, Assoc: 1},
		{SizeBytes: 8192, LineBytes: 32, Assoc: 96},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v unexpectedly valid", cfg)
		}
	}
	good := []Config{
		{SizeBytes: 8192, LineBytes: 32, Assoc: 1},
		{SizeBytes: 1 << 20, LineBytes: 32, Assoc: 4},
		{SizeBytes: 128, LineBytes: 32, Assoc: 4}, // fully associative
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %+v invalid: %v", cfg, err)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad config did not panic")
		}
	}()
	New(Config{SizeBytes: 100, LineBytes: 32, Assoc: 1})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if c.Read(0x40) {
		t.Fatal("cold cache should miss")
	}
	c.Fill(0x40)
	if !c.Read(0x40) {
		t.Fatal("read after fill should hit")
	}
	if !c.Read(0x5F) { // same 32B line as 0x40
		t.Fatal("read of same line should hit")
	}
	if c.Read(0x60) {
		t.Fatal("adjacent line should miss")
	}
}

func TestProbeDoesNotCount(t *testing.T) {
	c := small()
	c.Fill(0)
	c.Probe(0)
	c.Probe(32)
	if s := c.Stats(); s.ReadAccesses != 0 {
		t.Errorf("Probe counted as access: %+v", s)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := small()
	// 0x00 and 0x80 collide in a 4-line direct-mapped cache (index bits 6:5).
	c.Fill(0x00)
	ev, has := c.Fill(0x80)
	if !has || ev.Addr != 0x00 {
		t.Fatalf("expected eviction of 0x00, got %+v has=%v", ev, has)
	}
	if c.Probe(0x00) {
		t.Fatal("0x00 should have been evicted")
	}
	if !c.Probe(0x80) {
		t.Fatal("0x80 should be resident")
	}
}

func TestFillIdempotent(t *testing.T) {
	c := small()
	c.Fill(0x20)
	if _, has := c.Fill(0x20); has {
		t.Fatal("refilling a resident line must not evict")
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", c.Occupancy())
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 2-way cache with 2 sets: lines 0x00, 0x40, 0x80, 0xC0 map set 0/1/0/1.
	c := New(Config{SizeBytes: 128, LineBytes: 32, Assoc: 2})
	c.Fill(0x00)
	c.Fill(0x80) // set 0 now has 0x00 (older) and 0x80
	c.Read(0x00) // touch 0x00, making 0x80 the LRU way
	ev, has := c.Fill(0x100)
	if !has || ev.Addr != 0x80 {
		t.Fatalf("expected LRU eviction of 0x80, got %+v has=%v", ev, has)
	}
	if !c.Probe(0x00) || !c.Probe(0x100) {
		t.Fatal("0x00 and 0x100 should be resident")
	}
}

func TestWriteHitSemantics(t *testing.T) {
	c := small()
	if c.WriteHit(0x20) {
		t.Fatal("write to empty cache should miss (write-around)")
	}
	if c.Probe(0x20) {
		t.Fatal("write-around must not allocate")
	}
	c.Fill(0x20)
	if !c.WriteHit(0x20) {
		t.Fatal("write to resident line should hit")
	}
	s := c.Stats()
	if s.WriteAccesses != 2 || s.WriteHits != 1 {
		t.Errorf("write stats = %+v, want 2 accesses / 1 hit", s)
	}
}

func TestWriteAllocate(t *testing.T) {
	c := small()
	hit, _, has := c.WriteAllocate(0x40)
	if hit || has {
		t.Fatalf("first write-allocate: hit=%v evicted=%v, want miss and no eviction", hit, has)
	}
	if !c.Probe(0x40) {
		t.Fatal("write-allocate must allocate")
	}
	hit, _, _ = c.WriteAllocate(0x40)
	if !hit {
		t.Fatal("second write should hit")
	}
	// Conflict eviction of the now-dirty line.
	_, ev, has := c.WriteAllocate(0xC0)
	if !has || ev.Addr != 0x40 || !ev.Dirty {
		t.Fatalf("expected dirty eviction of 0x40, got %+v has=%v", ev, has)
	}
	if c.Stats().DirtyEvictions != 1 {
		t.Errorf("dirty evictions = %d, want 1", c.Stats().DirtyEvictions)
	}
}

func TestReadFillNotDirty(t *testing.T) {
	c := small()
	c.Fill(0x00)
	ev, has := c.Fill(0x80)
	if !has || ev.Dirty {
		t.Fatalf("read-filled line evicted dirty: %+v has=%v", ev, has)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Fill(0x60)
	removed, dirty := c.Invalidate(0x60)
	if !removed || dirty {
		t.Fatalf("Invalidate = %v, %v; want removed clean", removed, dirty)
	}
	if c.Probe(0x60) {
		t.Fatal("line still resident after invalidate")
	}
	if removed, _ := c.Invalidate(0x60); removed {
		t.Fatal("second invalidate should be a no-op")
	}
	// Dirty invalidation.
	c.WriteAllocate(0x60)
	if _, dirty := c.Invalidate(0x60); !dirty {
		t.Fatal("invalidate of written line should report dirty")
	}
}

func TestStatsAndRates(t *testing.T) {
	c := small()
	c.Read(0) // miss
	c.Fill(0)
	c.Read(0) // hit
	c.Read(8) // hit (same line)
	s := c.Stats()
	if s.ReadAccesses != 3 || s.ReadHits != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.ReadHitRate(); got < 0.66 || got > 0.67 {
		t.Errorf("ReadHitRate = %v, want 2/3", got)
	}
	c.ResetStats()
	if c.Stats().ReadAccesses != 0 {
		t.Error("ResetStats did not clear counters")
	}
	if !c.Probe(0) {
		t.Error("ResetStats must not clear contents")
	}
	var empty Stats
	if empty.ReadHitRate() != 1 || empty.WriteHitRate() != 1 {
		t.Error("empty stats should report perfect hit rates")
	}
}

// Property: occupancy never exceeds capacity and never goes negative, and a
// filled address always probes resident immediately afterwards.
func TestOccupancyBoundProperty(t *testing.T) {
	cfg := Config{SizeBytes: 256, LineBytes: 32, Assoc: 2}
	capacity := cfg.SizeBytes / cfg.LineBytes
	f := func(addrs []uint16) bool {
		c := New(cfg)
		for _, a := range addrs {
			addr := mem.Addr(a)
			if !c.Read(addr) {
				c.Fill(addr)
			}
			if !c.Probe(addr) {
				return false
			}
			if occ := c.Occupancy(); occ < 0 || occ > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses == accesses is maintained implicitly; check the
// read counters never over-count hits.
func TestHitCountProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := small()
		for _, a := range addrs {
			if !c.Read(mem.Addr(a)) {
				c.Fill(mem.Addr(a))
			}
		}
		s := c.Stats()
		return s.ReadHits <= s.ReadAccesses && s.ReadAccesses == uint64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: after any access sequence, invalidating everything yields
// occupancy zero (the tag store is self-consistent).
func TestInvalidateAllProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(Config{SizeBytes: 512, LineBytes: 32, Assoc: 4})
		for _, a := range addrs {
			c.WriteAllocate(mem.Addr(a))
		}
		for _, a := range addrs {
			c.Invalidate(mem.Addr(a))
		}
		return c.Occupancy() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCopyFromEqual: a copy answers like its source — contents, LRU order
// and statistics — until the two see different accesses.
func TestCopyFromEqual(t *testing.T) {
	cfg := Config{SizeBytes: 256, LineBytes: 32, Assoc: 2}
	src := New(cfg)
	for _, a := range []mem.Addr{0x00, 0x80, 0x100, 0x00, 0x20} {
		if !src.Read(a) {
			src.Fill(a)
		}
	}
	src.WriteHit(0x80)
	dst := New(cfg)
	if dst.Equal(src) {
		t.Fatal("fresh cache equals a used one")
	}
	dst.CopyFrom(src)
	if !dst.Equal(src) || dst.Stats() != src.Stats() {
		t.Fatal("copy differs from its source")
	}
	// Same accesses keep them equal, including an LRU-driven eviction.
	for _, c := range []*Cache{src, dst} {
		c.Read(0x100)
		c.Fill(0x180)
	}
	if !dst.Equal(src) {
		t.Fatal("copy diverged under identical accesses")
	}
	dst.Read(0x00)
	if dst.Equal(src) {
		t.Fatal("caches equal after different accesses")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom across geometries did not panic")
		}
	}()
	small().CopyFrom(src)
}
