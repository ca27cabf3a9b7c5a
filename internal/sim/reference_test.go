package sim

// This file contains an independently derived cycle-by-cycle reference
// simulator for the paper's core machine (perfect L2, single issue,
// retire-at-N, all four load-hazard policies) and a property test that the
// production Machine — which replays background retirements lazily —
// produces bit-identical cycle counts and stall attribution.
//
// The reference walks time one cycle at a time with the naive state
// machine a hardware description would use:
//
//	every cycle: complete the in-flight write if it ends here; then, if
//	the port is idle, no read is pending, and occupancy is at or above
//	the high-water mark, start writing the FIFO head (busy this cycle
//	through cycle start+L-1, entry freed for cycle start+L).
//
// Loads and stores interact with that process exactly as Section 2
// describes.  Any divergence between the two implementations fails the
// test with the offending stream.

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

type refEntry struct {
	tag   mem.Addr
	valid uint64
}

type refMachine struct {
	depth  int
	hwm    int
	hazard core.HazardPolicy
	rdLat  uint64
	wrLat  uint64

	l1      *cache.Cache
	entries []refEntry // FIFO; entries[0] may be the one being written
	writing bool
	wEnd    uint64 // first cycle after the in-flight write (entry freed then)

	bg  uint64 // background process is caught up through cycles < bg
	now uint64 // next issue cycle

	c stats.Counters
}

func newRef(depth, hwm int, hz core.HazardPolicy) *refMachine {
	return &refMachine{
		depth: depth, hwm: hwm, hazard: hz, rdLat: 6, wrLat: 6,
		l1: cache.New(cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1}),
	}
}

func (r *refMachine) tag(a mem.Addr) mem.Addr { return a >> 5 }
func (r *refMachine) wmask(a mem.Addr) uint64 { return 1 << uint((a>>3)&3) }

// tick advances the background write process through cycle c.  allowStart
// is false for the cycle the current instruction is executing in: within a
// cycle the machine orders the instruction's effect before a write start,
// so a store can still merge into (or a membar flush) the would-be
// retiree; the start opportunity is then given by tick2 after the
// instruction acts.
func (r *refMachine) tick(c uint64, allowStart bool) {
	if r.writing && c >= r.wEnd {
		r.entries = r.entries[1:]
		r.writing = false
		r.c.Retirements++
	}
	if allowStart && !r.writing && len(r.entries) >= r.hwm {
		r.writing = true
		r.wEnd = c + r.wrLat
	}
}

// catchUp plays the background process for every cycle in [bg, target).
func (r *refMachine) catchUp(target uint64) {
	for ; r.bg < target; r.bg++ {
		r.tick(r.bg, true)
	}
}

func (r *refMachine) step(ref trace.Ref) {
	r.c.Instructions++
	r.c.BaseCycles++
	t := r.now
	r.catchUp(t)
	r.tick(t, false) // cycle t: completion only; starts wait for the instruction
	r.bg = t + 1
	switch ref.Kind {
	case trace.Store:
		r.store(ref.Addr, t)
	case trace.Load:
		r.load(ref.Addr, t)
	case trace.Membar:
		r.membar(t)
	default:
		r.now = t + 1
		r.tick2(t) // the cycle's start opportunity survives a non-memory instruction
	}
}

func (r *refMachine) membar(t uint64) {
	free := t
	if r.writing {
		free = r.wEnd
		r.entries = r.entries[1:]
		r.writing = false
		r.c.Retirements++
	}
	flushEnd := free + uint64(len(r.entries))*r.wrLat
	r.c.FlushedEntries += uint64(len(r.entries))
	r.entries = r.entries[:0]
	r.c.AddStall(stats.MembarDrain, flushEnd-t)
	r.now = t + 1 + (flushEnd - t)
	r.bg = flushEnd
}

func (r *refMachine) store(a mem.Addr, t uint64) {
	r.c.Stores++
	r.l1.WriteHit(a)
	// Merge into any entry except the one being written.
	start := 0
	if r.writing {
		start = 1
	}
	for i := start; i < len(r.entries); i++ {
		if r.entries[i].tag == r.tag(a) {
			r.entries[i].valid |= r.wmask(a)
			r.now = t + 1
			r.tick2(t) // a post-action start opportunity in cycle t
			return
		}
	}
	// Allocate, stalling cycle by cycle while full.
	// A full buffer at cycle t may still start its retirement here (the
	// blocked store cannot merge, so ordering is immaterial).
	r.tick2(t)
	cyc := t
	for len(r.entries) == r.depth {
		if cyc > t+100000 {
			panic("reference: store deadlock")
		}
		cyc++
		r.tick(cyc, true)
		r.bg = cyc + 1
	}
	if cyc > t {
		r.c.BlockedStores++
		r.c.AddStall(stats.BufferFull, cyc-t)
	}
	r.entries = append(r.entries, refEntry{tag: r.tag(a), valid: r.wmask(a)})
	r.now = cyc + 1
	r.tick2(cyc)
}

// tick2 gives the background process the start opportunity created by the
// instruction's own cycle (the fast model lets a retirement begin the very
// cycle a store raises occupancy to the mark).
func (r *refMachine) tick2(c uint64) {
	if !r.writing && len(r.entries) >= r.hwm {
		r.writing = true
		r.wEnd = c + r.wrLat
	}
	if r.bg <= c {
		r.bg = c + 1
	}
}

func (r *refMachine) load(a mem.Addr, t uint64) {
	r.c.Loads++
	if r.l1.Read(a) {
		r.c.L1LoadHits++
		r.now = t + 1
		r.tick2(t)
		return
	}
	// Probe the buffer (including the entry being written).
	hit := -1
	for i := range r.entries {
		if r.entries[i].tag == r.tag(a) {
			hit = i
			break
		}
	}
	if hit >= 0 {
		r.c.HazardEvents++
		if r.hazard == core.ReadFromWB {
			if r.entries[hit].valid&r.wmask(a) != 0 {
				r.c.WBReadHits++
				r.now = t + 1
				r.tick2(t)
				return
			}
			r.plainMiss(a, t)
			return
		}
		r.hazardMiss(a, t, hit)
		return
	}
	r.plainMiss(a, t)
}

// plainMiss: wait out an in-flight write (L2-read-access), read 6 cycles.
func (r *refMachine) plainMiss(a mem.Addr, t uint64) {
	readStart := t
	if r.writing {
		readStart = r.wEnd
		// The write completes; no new write may start while the read is
		// pending or in service.
		r.entries = r.entries[1:]
		r.writing = false
		r.c.Retirements++
	}
	ra := readStart - t
	r.c.AddStall(stats.L2ReadAccess, ra)
	r.c.MissCycles += r.rdLat
	r.l1.Fill(a)
	readEnd := readStart + r.rdLat
	r.now = t + 1 + ra + r.rdLat
	r.bg = readEnd // writes may resume once the port frees
}

// hazardMiss: flush per policy, then read.
func (r *refMachine) hazardMiss(a mem.Addr, t uint64, hit int) {
	free := t
	if r.writing {
		free = r.wEnd
		r.entries = r.entries[1:]
		r.writing = false
		r.c.Retirements++
		// The write may have been the hit entry itself.  A later entry
		// for the same line (a store that could not merge into the entry
		// being written) is still a hazard, so probe again.
		hit = -1
		for i := range r.entries {
			if r.entries[i].tag == r.tag(a) {
				hit = i
				break
			}
		}
	}
	var toFlush int
	switch r.hazard {
	case core.FlushFull:
		toFlush = len(r.entries)
		r.entries = r.entries[:0]
	case core.FlushPartial:
		if hit >= 0 {
			toFlush = hit + 1
			r.entries = r.entries[toFlush:]
		}
	case core.FlushItemOnly:
		if hit >= 0 {
			toFlush = 1
			r.entries = append(r.entries[:hit], r.entries[hit+1:]...)
		}
	}
	r.c.FlushedEntries += uint64(toFlush)
	flushEnd := free + uint64(toFlush)*r.wrLat
	lh := flushEnd - t
	r.c.AddStall(stats.LoadHazard, lh)
	r.c.MissCycles += r.rdLat
	r.l1.Fill(a)
	r.now = t + 1 + lh + r.rdLat
	r.bg = flushEnd + r.rdLat
}

func (r *refMachine) counters() stats.Counters {
	c := r.c
	c.Cycles = r.now
	return c
}

// settle ends a comparison stream with a memory barrier so both models
// account for every started write: without it, the fast model leaves
// in-flight retirements unreplayed past the last instruction (a pure
// bookkeeping difference, not a timing one).
func settle(refs []trace.Ref) []trace.Ref {
	out := make([]trace.Ref, len(refs), len(refs)+1)
	copy(out, refs)
	return append(out, trace.Ref{Kind: trace.Membar})
}

// refRun drives the reference over a stream.
func refRun(depth, hwm int, hz core.HazardPolicy, refs []trace.Ref) stats.Counters {
	r := newRef(depth, hwm, hz)
	for _, ref := range settle(refs) {
		r.step(ref)
	}
	return r.counters()
}

// fastRun drives the production machine over the same stream.
func fastRun(depth, hwm int, hz core.HazardPolicy, refs []trace.Ref) stats.Counters {
	cfg := Baseline().WithDepth(depth).WithRetire(core.RetireAt{N: hwm}).WithHazard(hz)
	m := MustNew(cfg)
	m.Run(trace.NewSliceStream(settle(refs)))
	return m.Counters()
}

// The hand-computed scenarios must agree before the property runs.
func TestReferenceMatchesHandScenarios(t *testing.T) {
	scenarios := [][]trace.Ref{
		{{Kind: trace.Store, Addr: lineA}},
		{{Kind: trace.Store, Addr: lineA}, {Kind: trace.Store, Addr: lineB},
			{Kind: trace.Exec}, {Kind: trace.Load, Addr: lineC}},
		{{Kind: trace.Store, Addr: lineA}, {Kind: trace.Store, Addr: lineB},
			{Kind: trace.Store, Addr: lineC}},
		{{Kind: trace.Store, Addr: lineA}, {Kind: trace.Load, Addr: lineA + 8}},
	}
	for i, refs := range scenarios {
		fast := fastRun(4, 2, core.FlushFull, refs)
		ref := refRun(4, 2, core.FlushFull, refs)
		if fast != ref {
			t.Errorf("scenario %d:\nfast %+v\nref  %+v", i, fast, ref)
		}
	}
}

// The property: on arbitrary streams and across the core design space, the
// lazy-drain machine and the cycle-by-cycle reference agree exactly.
func TestLazyDrainMatchesReferenceProperty(t *testing.T) {
	type cfg struct {
		depth, hwm int
		hz         core.HazardPolicy
	}
	configs := []cfg{
		{2, 2, core.FlushFull},
		{4, 2, core.FlushFull},
		{4, 2, core.FlushPartial},
		{4, 2, core.FlushItemOnly},
		{4, 2, core.ReadFromWB},
		{8, 4, core.FlushFull},
		{12, 8, core.ReadFromWB},
		{12, 10, core.FlushPartial},
		{6, 6, core.FlushItemOnly},
	}
	agree := func(tc cfg, seed uint64, n int) bool {
		refs := randomRefs(rng.New(seed), n)
		fast := fastRun(tc.depth, tc.hwm, tc.hz, refs)
		ref := refRun(tc.depth, tc.hwm, tc.hz, refs)
		if fast != ref {
			t.Logf("depth %d hwm %d %v seed %d n %d:\nfast %+v\nref  %+v",
				tc.depth, tc.hwm, tc.hz, seed, n, fast, ref)
			return false
		}
		return true
	}
	// Streams the property once found: a load hits the line being
	// written while a younger entry for the same line (a store that could
	// not merge into the retiring head) waits behind it.
	for _, r := range []struct {
		tc   cfg
		seed uint64
		n    int
	}{
		{cfg{4, 2, core.FlushPartial}, 6241482702009879467, 1207},
		{cfg{4, 2, core.FlushItemOnly}, 10320641268908109143, 823},
		{cfg{4, 2, core.FlushPartial}, 587, 903},
	} {
		if !agree(r.tc, r.seed, r.n) {
			t.Errorf("depth %d hwm %d %v: regression stream seed %d diverged", r.tc.depth, r.tc.hwm, r.tc.hz, r.seed)
		}
	}
	for _, tc := range configs {
		tc := tc
		f := func(seed uint64, n uint16) bool {
			return agree(tc, seed, int(n)%1200+50)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("depth %d hwm %d %v: %v", tc.depth, tc.hwm, tc.hz, err)
		}
	}
}
