package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// addrOf builds the byte address of (entry tag, word index) under the
// default geometry (4-word line-wide entries: tagShift = 5).
func addrOf(tag mem.Addr, word int) mem.Addr {
	return tag<<5 | mem.Addr(word)<<3
}

func ftlConfig(depth int) Config {
	return Config{Depth: depth, WordsPerEntry: mem.WordsPerLine, Geometry: mem.DefaultGeometry}
}

func TestFTLOrgValidate(t *testing.T) {
	cfg := ftlConfig(8)
	cases := []struct {
		spec FTLOrg
		ok   bool
	}{
		{FTLOrg{NumBuffers: 1, SectorBits: 0}, true},
		{FTLOrg{NumBuffers: 2, SectorBits: 1}, true},
		{FTLOrg{NumBuffers: 4, SectorBits: 2}, true},
		{FTLOrg{NumBuffers: 8, SectorBits: 0}, true},
		{FTLOrg{NumBuffers: 0}, false},                 // < 1
		{FTLOrg{NumBuffers: -2}, false},                // < 1
		{FTLOrg{NumBuffers: 3}, false},                 // not a power of two
		{FTLOrg{NumBuffers: 16}, false},                // does not divide depth
		{FTLOrg{NumBuffers: 1, SectorBits: -1}, false}, /* negative */
		{FTLOrg{NumBuffers: 1, SectorBits: 3}, false},  // granule 8 > 4 words
	}
	for _, c := range cases {
		err := c.spec.ValidateOrg(cfg)
		if (err == nil) != c.ok {
			t.Errorf("ValidateOrg(%+v) = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
	if name := (FTLOrg{}).OrgName(); name != "ftl" {
		t.Errorf("OrgName = %q", name)
	}
}

// TestFTLStriping checks that blocks land in their tag-selected home buffer
// and that a full home buffer blocks a store even when the structure as a
// whole has room — the head-of-line behaviour that makes numbuffers a real
// timing axis.
func TestFTLStriping(t *testing.T) {
	f := NewFTL(ftlConfig(4), FTLOrg{NumBuffers: 2}) // 2 entries per buffer
	// Tags 0 and 2 are even: home buffer 0.  Tag 1: home buffer 1.
	if r := f.Store(addrOf(0, 0), 1); r != StoreAllocated {
		t.Fatalf("store tag 0: %v", r)
	}
	if r := f.Store(addrOf(2, 0), 2); r != StoreAllocated {
		t.Fatalf("store tag 2: %v", r)
	}
	if r := f.Store(addrOf(1, 0), 3); r != StoreAllocated {
		t.Fatalf("store tag 1: %v", r)
	}
	if got := f.BufOccupancies(); !reflect.DeepEqual(got, []int{2, 1}) {
		t.Fatalf("occupancies = %v, want [2 1]", got)
	}
	// Buffer 0 is full: a third even tag blocks despite total occupancy 3/4.
	if r := f.Store(addrOf(4, 0), 4); r != StoreBlocked {
		t.Fatalf("store tag 4 = %v, want StoreBlocked", r)
	}
	// Its own merge still works.
	if r := f.Store(addrOf(2, 3), 5); r != StoreMerged {
		t.Fatalf("merge tag 2 = %v, want StoreMerged", r)
	}
	if f.Occupancy() != 3 {
		t.Fatalf("occupancy = %d", f.Occupancy())
	}
}

// TestFTLFullestVictim checks fullest-buffer victim selection with the
// drain-cursor tie-break: the buffer with the most valid sectors retires
// first, and on ties the cursor's buffer keeps draining.
func TestFTLFullestVictim(t *testing.T) {
	f := NewFTL(ftlConfig(8), FTLOrg{NumBuffers: 2})
	f.Store(addrOf(0, 0), 1) // buffer 0: 1 sector
	f.Store(addrOf(1, 0), 2) // buffer 1: 1 sector
	f.Store(addrOf(1, 1), 3) // merge: buffer 1 now 2 sectors
	if got := f.HeadAllocCycle(); got != 2 {
		t.Fatalf("HeadAllocCycle = %d, want 2 (buffer 1's head)", got)
	}
	e := f.BeginRetire()
	if e.Tag != 1 {
		t.Fatalf("victim tag = %d, want 1 (fullest buffer)", e.Tag)
	}
	f.CompleteRetire()
	if got := f.Stats().Retirements; got != 1 {
		t.Fatalf("retirements = %d", got)
	}
	// Now both buffers tie at 1 sector each after refilling buffer 1; the
	// cursor (buffer 1, where the last retirement drained) wins the tie.
	f.Store(addrOf(3, 0), 4)
	if e := f.BeginRetire(); e.Tag != 3 {
		t.Fatalf("tie-break victim tag = %d, want 3 (cursor buffer)", e.Tag)
	}
	f.AbandonRetireForTest()
}

// AbandonRetireForTest mirrors Buffer.AbandonRetire for tests.
func (f *FTL) AbandonRetireForTest() { f.retiring = false }

// TestFTLSectorCoarsening checks the conservative semantics of coarse
// valid granules: stores to words sharing a granule set one bit, the word
// itself is never provably valid (no forwarding), and no mask proves a
// full line.
func TestFTLSectorCoarsening(t *testing.T) {
	f := NewFTL(ftlConfig(4), FTLOrg{NumBuffers: 1, SectorBits: 1}) // 2 words per granule
	f.Store(addrOf(7, 0), 1)
	if _, wv, hit := f.Probe(addrOf(7, 0)); !hit || wv {
		t.Fatalf("probe word 0: hit=%v wordValid=%v, want hit and no forwarding", hit, wv)
	}
	// Word 1 shares granule 0: the merge sets no new bit.
	if r := f.Store(addrOf(7, 1), 2); r != StoreMerged {
		t.Fatalf("merge = %v", r)
	}
	if x := f.OrgStats(); x.MaskCoalesces != 0 || x.SectorsCoalesced != 0 {
		t.Fatalf("same-granule merge coalesced mask bits: %+v", x)
	}
	// Word 2 is granule 1: a new bit.
	f.Store(addrOf(7, 2), 3)
	if x := f.OrgStats(); x.MaskCoalesces != 1 || x.SectorsCoalesced != 1 {
		t.Fatalf("cross-granule merge stats: %+v", x)
	}
	if es := f.Entries(); len(es) != 1 || es[0].Valid != 0b11 {
		t.Fatalf("entries = %+v, want one entry with granule mask 0b11", es)
	}
	if f.FullLineMask() != 0 {
		t.Fatalf("coarse FullLineMask = %#x, want unreachable 0", f.FullLineMask())
	}
	// Per-word granules keep the FIFO's full-line proof.
	fine := NewFTL(ftlConfig(4), FTLOrg{NumBuffers: 1})
	if fine.FullLineMask() != FullMask(mem.WordsPerLine) {
		t.Fatalf("fine FullLineMask = %#x", fine.FullLineMask())
	}
}

// TestFTLFlushThroughHomeBuffer checks that a hazard flush drains only the
// hit entry's home buffer up to and including it — other buffers hold
// unrelated blocks and keep coalescing.
func TestFTLFlushThroughHomeBuffer(t *testing.T) {
	f := NewFTL(ftlConfig(8), FTLOrg{NumBuffers: 2})
	f.Store(addrOf(0, 0), 1) // buffer 0
	f.Store(addrOf(2, 0), 2) // buffer 0
	f.Store(addrOf(4, 0), 3) // buffer 0
	f.Store(addrOf(1, 0), 4) // buffer 1
	idx, _, hit := f.Probe(addrOf(2, 0))
	if !hit {
		t.Fatal("probe missed")
	}
	got := f.FlushThroughInto(nil, idx)
	if len(got) != 2 || got[0].Tag != 0 || got[1].Tag != 2 {
		t.Fatalf("flushed = %+v, want tags [0 2]", got)
	}
	if occ := f.BufOccupancies(); !reflect.DeepEqual(occ, []int{1, 1}) {
		t.Fatalf("occupancies after flush = %v", occ)
	}
	if f.Stats().Flushes != 2 {
		t.Fatalf("flushes = %d", f.Stats().Flushes)
	}
	// FlushOne removes exactly the indexed entry.
	idx = f.Find(addrOf(4, 0))
	if e := f.FlushOne(idx); e.Tag != 4 {
		t.Fatalf("FlushOne tag = %d", e.Tag)
	}
	// FlushAll drains the rest in buffer order.
	rest := f.FlushAllInto(nil)
	if len(rest) != 1 || rest[0].Tag != 1 {
		t.Fatalf("FlushAll = %+v", rest)
	}
	if f.Occupancy() != 0 {
		t.Fatalf("occupancy = %d", f.Occupancy())
	}
}

// TestFTLDegenerateCoreEquivalence drives a Buffer and an FTL{1,0} through
// the same randomized operation sequence and requires identical observable
// state after every step: the degenerate organization IS the FIFO.
func TestFTLDegenerateCoreEquivalence(t *testing.T) {
	cfg := ftlConfig(6)
	b := NewBuffer(cfg)
	f := NewFTL(cfg, FTLOrg{NumBuffers: 1})
	r := rand.New(rand.NewSource(42))
	check := func(step int) {
		t.Helper()
		if b.Stats() != f.Stats() {
			t.Fatalf("step %d: stats diverged\nfifo: %+v\nftl:  %+v", step, b.Stats(), f.Stats())
		}
		if b.Occupancy() != f.Occupancy() || b.Retiring() != f.Retiring() {
			t.Fatalf("step %d: occupancy/retiring diverged", step)
		}
		if !reflect.DeepEqual(b.Entries(), f.Entries()) {
			t.Fatalf("step %d: entries diverged\nfifo: %+v\nftl:  %+v", step, b.Entries(), f.Entries())
		}
	}
	for step := 0; step < 5000; step++ {
		addr := addrOf(mem.Addr(r.Intn(10)), r.Intn(4))
		switch op := r.Intn(10); {
		case op < 4: // store
			rb, rf := b.Store(addr, uint64(step)), f.Store(addr, uint64(step))
			if rb != rf {
				t.Fatalf("step %d: Store(%#x) fifo=%v ftl=%v", step, addr, rb, rf)
			}
		case op < 6: // probe + find
			ib, wb, hb := b.Probe(addr)
			iff, wf, hf := f.Probe(addr)
			if ib != iff || wb != wf || hb != hf {
				t.Fatalf("step %d: Probe(%#x) diverged", step, addr)
			}
			if b.Find(addr) != f.Find(addr) {
				t.Fatalf("step %d: Find(%#x) diverged", step, addr)
			}
		case op < 8: // retirement cycle
			if b.Retiring() {
				b.CompleteRetire()
				f.CompleteRetire()
			} else if b.Occupancy() > 0 {
				eb, ef := b.BeginRetire(), f.BeginRetire()
				if eb != ef {
					t.Fatalf("step %d: BeginRetire fifo=%+v ftl=%+v", step, eb, ef)
				}
				if b.HeadAllocCycle() != f.HeadAllocCycle() {
					t.Fatalf("step %d: HeadAllocCycle diverged", step)
				}
			}
		case op < 9: // hazard flush
			if b.Retiring() || b.Occupancy() == 0 {
				break
			}
			if i := b.Find(addr); i >= 0 {
				switch r.Intn(3) {
				case 0:
					gb, gf := b.FlushThroughInto(nil, i), f.FlushThroughInto(nil, f.Find(addr))
					if !reflect.DeepEqual(gb, gf) {
						t.Fatalf("step %d: FlushThrough diverged", step)
					}
				case 1:
					if eb, ef := b.FlushOne(i), f.FlushOne(i); eb != ef {
						t.Fatalf("step %d: FlushOne diverged", step)
					}
				case 2:
					gb, gf := b.FlushAllInto(nil), f.FlushAllInto(nil)
					if !reflect.DeepEqual(gb, gf) {
						t.Fatalf("step %d: FlushAll diverged", step)
					}
				}
			}
		default: // membar-style drain when idle
			if !b.Retiring() {
				gb, gf := b.FlushAllInto(nil), f.FlushAllInto(nil)
				if !reflect.DeepEqual(gb, gf) {
					t.Fatalf("step %d: FlushAll diverged", step)
				}
			}
		}
		check(step)
	}
}

// TestFTLOrgSamples checks the metric export: aggregates plus one
// allocation/retirement/occupancy triple per buffer.
func TestFTLOrgSamples(t *testing.T) {
	f := NewFTL(ftlConfig(4), FTLOrg{NumBuffers: 2})
	f.Store(addrOf(0, 0), 1)
	f.Store(addrOf(0, 1), 2)
	samples := f.OrgSamples(nil)
	if len(samples) != 2+3*2 {
		t.Fatalf("got %d samples: %+v", len(samples), samples)
	}
	byName := map[string]uint64{}
	for _, s := range samples {
		if s.Buf < 0 {
			byName[s.Name] = s.Value
		}
	}
	if byName["mask_coalesces"] != 1 || byName["sectors_coalesced"] != 1 {
		t.Fatalf("aggregate samples = %v", byName)
	}
	f.ResetStats()
	for _, s := range f.OrgSamples(nil) {
		if !s.Gauge && s.Value != 0 {
			t.Fatalf("counter %s buf %d not reset: %d", s.Name, s.Buf, s.Value)
		}
	}
}
