package core

// Model tests for the write-stage storage: a naive slice FIFO (the seed
// representation, which memmoved on every retirement) runs the same
// randomized operation sequence as the structure-of-arrays ring Buffer,
// and a naive per-buffer slice model does the same for the FTL
// organization.  Every observable — entry order, stats, flush results, the
// address/mask/age BeginRetire hands the retirement engine — must match at
// every step.  The churn drives head around the ring many times, so every
// wraparound case in slot-addressed code (Store, Probe, FlushPrefixInto,
// FlushOne's shift) is exercised at every head offset, at every depth from
// 1 to 16: powers of two, where the ring is exactly Depth long, and every
// other depth, where Depth bounds occupancy inside a longer ring.

import (
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

// sliceFIFO is the reference implementation: entries[0] is the head.
type sliceFIFO struct {
	cfg      Config
	entries  []Entry
	retiring bool
}

func (s *sliceFIFO) tag(addr mem.Addr) mem.Addr {
	wordsPerEntry := mem.Addr(s.cfg.WordsPerEntry)
	return addr / mem.Addr(s.cfg.Geometry.WordBytes()) / wordsPerEntry
}

// addr is the base byte address of a tag's block.
func (s *sliceFIFO) addr(tag mem.Addr) mem.Addr {
	return tag * mem.Addr(s.cfg.Geometry.WordBytes()*s.cfg.WordsPerEntry)
}

func (s *sliceFIFO) wordMask(addr mem.Addr) uint64 {
	w := addr / mem.Addr(s.cfg.Geometry.WordBytes()) % mem.Addr(s.cfg.WordsPerEntry)
	return 1 << uint(w)
}

func (s *sliceFIFO) store(addr mem.Addr, cycle uint64) bool {
	tag := s.tag(addr)
	for i := range s.entries {
		if i == 0 && s.retiring {
			continue
		}
		if s.entries[i].Tag == tag {
			s.entries[i].Valid |= s.wordMask(addr)
			return true
		}
	}
	if len(s.entries) == s.cfg.Depth {
		return false
	}
	s.entries = append(s.entries, Entry{Tag: tag, Valid: s.wordMask(addr), AllocCycle: cycle})
	return true
}

// find is the oldest entry holding addr's block, or -1.
func (s *sliceFIFO) find(addr mem.Addr) int {
	tag := s.tag(addr)
	for i, e := range s.entries {
		if e.Tag == tag {
			return i
		}
	}
	return -1
}

func (s *sliceFIFO) flushPrefix(n int) []Entry {
	out := append([]Entry{}, s.entries[:n]...)
	s.entries = append(s.entries[:0], s.entries[n:]...)
	return out
}

func (s *sliceFIFO) flushOne(i int) Entry {
	e := s.entries[i]
	s.entries = append(s.entries[:i], s.entries[i+1:]...)
	return e
}

func TestRingMatchesSliceModel(t *testing.T) {
	for depth := 1; depth <= 16; depth++ {
		cfg := DefaultConfig()
		cfg.Depth = depth
		b := NewBuffer(cfg)
		model := &sliceFIFO{cfg: cfg}
		r := rng.New(uint64(1000 + depth))
		var wrappedFlushOnes, retiringDups, blockedAllocs int

		check := func(step int, op string) {
			t.Helper()
			got := b.Entries()
			want := append([]Entry{}, model.entries...)
			if len(got) == 0 && len(want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("depth %d step %d after %s: ring %+v, model %+v",
					depth, step, op, got, want)
			}
		}

		for step := 0; step < 20_000; step++ {
			addr := mem.Addr(r.Uint64() % (1 << 12))
			switch op := r.Uint64() % 11; {
			case op < 4: // store
				res := b.Store(addr, uint64(step))
				ok := model.store(addr, uint64(step))
				if (res == StoreBlocked) == ok {
					t.Fatalf("depth %d step %d: store blocked mismatch", depth, step)
				}
				check(step, "store")
				if res != StoreBlocked {
					continue
				}
				// A blocked store waits for one retirement, as the
				// simulator does, then allocates without a merge scan.
				if !b.Retiring() {
					b.BeginRetire()
				}
				b.CompleteRetire()
				model.entries, model.retiring = model.entries[1:], false
				b.Allocate(addr, uint64(step))
				if !model.store(addr, uint64(step)) {
					t.Fatalf("depth %d step %d: model blocked after a retirement", depth, step)
				}
				blockedAllocs++
				check(step, "allocate-after-block")
			case op < 7: // retire cycle
				if b.Retiring() {
					b.CompleteRetire()
					model.entries = model.entries[1:]
					model.retiring = false
					check(step, "complete-retire")
				} else if b.Occupancy() > 0 {
					head := model.entries[0]
					if got := b.HeadAllocCycle(); got != head.AllocCycle {
						t.Fatalf("depth %d step %d: HeadAllocCycle %d, model head %+v",
							depth, step, got, head)
					}
					a, valid, alloc := b.BeginRetire()
					model.retiring = true
					if a != model.addr(head.Tag) || valid != head.Valid || alloc != head.AllocCycle {
						t.Fatalf("depth %d step %d: BeginRetire (%#x, %#b, %d), model head %+v",
							depth, step, a, valid, alloc, head)
					}
				}
			case op < 8: // a store to the retiring head's block, then locate it
				if !b.Retiring() {
					continue
				}
				head := model.addr(model.entries[0].Tag) + addr%mem.Addr(cfg.Geometry.WordBytes()*cfg.WordsPerEntry)
				res := b.Store(head, uint64(step))
				ok := model.store(head, uint64(step))
				if (res == StoreBlocked) == ok {
					t.Fatalf("depth %d step %d: store behind retiring head blocked mismatch", depth, step)
				}
				if res == StoreAllocated {
					retiringDups++
				}
				// Whether or not the store found room behind the head, the
				// retiring head is the oldest copy of the block: position 0.
				if i := b.Find(head); i != 0 {
					t.Fatalf("depth %d step %d: Find of retiring head's block = %d, want 0", depth, step, i)
				}
				if i, _, hit := b.Probe(head); !hit || i != 0 {
					t.Fatalf("depth %d step %d: Probe of retiring head's block = (%d, %v), want (0, true)",
						depth, step, i, hit)
				}
				check(step, "store-behind-retiring-head")
			case op < 9: // probe + find agree on position
				idx, wordValid, hit := b.Probe(addr)
				wantIdx := model.find(addr)
				if hit != (wantIdx >= 0) || (hit && idx != wantIdx) {
					t.Fatalf("depth %d step %d: probe (%d,%v), model idx %d",
						depth, step, idx, hit, wantIdx)
				}
				if hit && wordValid != (model.entries[wantIdx].Valid&model.wordMask(addr) != 0) {
					t.Fatalf("depth %d step %d: probe wordValid %v disagrees with model", depth, step, wordValid)
				}
				if got := b.Find(addr); got != wantIdx {
					t.Fatalf("depth %d step %d: Find %d, model idx %d", depth, step, got, wantIdx)
				}
			case op < 10: // flush a prefix (hazard flush-partial / flush-full shape)
				if b.Retiring() || b.Occupancy() == 0 {
					continue
				}
				n := int(r.Uint64()%uint64(b.Occupancy())) + 1
				got := b.FlushPrefixInto(nil, n)
				want := model.flushPrefix(n)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("depth %d step %d: FlushPrefixInto(%d) = %+v, want %+v",
						depth, step, n, got, want)
				}
				check(step, "flush-prefix")
			default: // flush one interior entry (flush-item-only shape)
				if b.Retiring() || b.Occupancy() == 0 {
					continue
				}
				i := int(r.Uint64() % uint64(b.Occupancy()))
				// The shift of the younger entries crosses the end of the
				// ring when position i sits before it and the tail after.
				if b.head+i <= b.mask && b.head+b.Occupancy()-1 > b.mask {
					wrappedFlushOnes++
				}
				got := b.FlushOne(i)
				want := model.flushOne(i)
				if got != want {
					t.Fatalf("depth %d step %d: FlushOne(%d) = %+v, want %+v",
						depth, step, i, got, want)
				}
				check(step, "flush-one")
			}
		}
		if depth > 1 && wrappedFlushOnes == 0 {
			t.Errorf("depth %d: no FlushOne shifted entries across the ring's end", depth)
		}
		if depth > 1 && retiringDups == 0 {
			t.Errorf("depth %d: no store reallocated a block behind its retiring head", depth)
		}
		if blockedAllocs == 0 {
			t.Errorf("depth %d: no store was blocked", depth)
		}
	}
}

// ftlModel is the FTL organization as per-buffer slices: bufs[b][0] is
// buffer b's oldest entry.
type ftlModel struct {
	cfg        Config
	spec       FTLOrg
	bufs       [][]Entry
	cursor     int
	retiring   bool
	retBuf     int
	tagShift   uint
	wordShift  uint
	sectorBits uint
}

func newFTLModel(cfg Config, spec FTLOrg) *ftlModel {
	wordShift := mem.Log2(cfg.Geometry.WordBytes())
	return &ftlModel{
		cfg: cfg, spec: spec,
		bufs:       make([][]Entry, spec.NumBuffers),
		tagShift:   wordShift + mem.Log2(cfg.WordsPerEntry),
		wordShift:  wordShift,
		sectorBits: uint(spec.SectorBits),
	}
}

func (m *ftlModel) perBuf() int         { return m.cfg.Depth / m.spec.NumBuffers }
func (m *ftlModel) home(a mem.Addr) int { return int(a>>m.tagShift) % m.spec.NumBuffers }
func (m *ftlModel) sector(a mem.Addr) uint64 {
	w := int(a>>m.wordShift) % m.cfg.WordsPerEntry
	return 1 << uint(w>>m.sectorBits)
}

func (m *ftlModel) occupancy() int {
	n := 0
	for _, q := range m.bufs {
		n += len(q)
	}
	return n
}

func (m *ftlModel) entries() []Entry {
	var out []Entry
	for _, q := range m.bufs {
		out = append(out, q...)
	}
	return out
}

// victim is the buffer holding the most valid sectors, ties going to the
// first in ring order from the drain cursor.
func (m *ftlModel) victim() int {
	best, bestSecs := -1, -1
	for i := range m.bufs {
		b := (m.cursor + i) % len(m.bufs)
		secs := 0
		for _, e := range m.bufs[b] {
			secs += bits.OnesCount64(e.Valid)
		}
		if len(m.bufs[b]) > 0 && secs > bestSecs {
			best, bestSecs = b, secs
		}
	}
	return best
}

func (m *ftlModel) store(a mem.Addr, cycle uint64) StoreResult {
	tag, hb := a>>m.tagShift, m.home(a)
	for i := range m.bufs[hb] {
		if i == 0 && m.retiring && m.retBuf == hb {
			continue
		}
		if m.bufs[hb][i].Tag == tag {
			m.bufs[hb][i].Valid |= m.sector(a)
			return StoreMerged
		}
	}
	if len(m.bufs[hb]) == m.perBuf() {
		return StoreBlocked
	}
	m.bufs[hb] = append(m.bufs[hb], Entry{Tag: tag, Valid: m.sector(a), AllocCycle: cycle})
	return StoreAllocated
}

// find returns (index as the FTL encodes it, entry), or -1.
func (m *ftlModel) find(a mem.Addr) (int, Entry) {
	tag, hb := a>>m.tagShift, m.home(a)
	for i, e := range m.bufs[hb] {
		if e.Tag == tag {
			return hb*m.perBuf() + i, e
		}
	}
	return -1, Entry{}
}

func (m *ftlModel) pop(b, n int) []Entry {
	out := append([]Entry{}, m.bufs[b][:n]...)
	m.bufs[b] = append(m.bufs[b][:0], m.bufs[b][n:]...)
	return out
}

func TestFTLMatchesSliceModel(t *testing.T) {
	for _, tc := range []struct {
		depth int
		spec  FTLOrg
	}{
		{4, FTLOrg{NumBuffers: 2}},
		{6, FTLOrg{NumBuffers: 2, SectorBits: 1}}, // 3 slots per buffer
		{8, FTLOrg{NumBuffers: 4, SectorBits: 1}},
		{12, FTLOrg{NumBuffers: 4, SectorBits: 2}},
		{16, FTLOrg{NumBuffers: 8}},
	} {
		cfg := DefaultConfig()
		cfg.Depth = tc.depth
		f := NewFTL(cfg, tc.spec)
		m := newFTLModel(cfg, tc.spec)
		r := rng.New(uint64(2000 + tc.depth))

		for step := 0; step < 20_000; step++ {
			addr := mem.Addr(r.Uint64() % (1 << 11))
			switch op := r.Uint64() % 10; {
			case op < 4:
				if got, want := f.Store(addr, uint64(step)), m.store(addr, uint64(step)); got != want {
					t.Fatalf("depth %d step %d: Store = %v, model %v", tc.depth, step, got, want)
				}
			case op < 7:
				if f.Retiring() {
					f.CompleteRetire()
					m.pop(m.retBuf, 1)
					m.cursor, m.retiring = m.retBuf, false
				} else if m.occupancy() > 0 {
					m.retBuf = m.victim()
					head := m.bufs[m.retBuf][0]
					if got := f.HeadAllocCycle(); got != head.AllocCycle {
						t.Fatalf("depth %d step %d: HeadAllocCycle %d, model victim %+v",
							tc.depth, step, got, head)
					}
					a, valid, alloc := f.BeginRetire()
					m.retiring = true
					if a != head.Tag<<m.tagShift || valid != head.Valid || alloc != head.AllocCycle {
						t.Fatalf("depth %d step %d: BeginRetire (%#x, %#b, %d), model victim %+v",
							tc.depth, step, a, valid, alloc, head)
					}
				}
			case op < 8:
				idx, wordValid, hit := f.Probe(addr)
				wantIdx, e := m.find(addr)
				if idx != wantIdx || hit != (wantIdx >= 0) {
					t.Fatalf("depth %d step %d: Probe (%d, %v), model %d", tc.depth, step, idx, hit, wantIdx)
				}
				wantWV := hit && m.sectorBits == 0 && e.Valid&m.sector(addr) != 0
				if wordValid != wantWV {
					t.Fatalf("depth %d step %d: Probe wordValid %v, model %v", tc.depth, step, wordValid, wantWV)
				}
				if got := f.Find(addr); got != wantIdx {
					t.Fatalf("depth %d step %d: Find %d, model %d", tc.depth, step, got, wantIdx)
				}
			default:
				if f.Retiring() {
					continue
				}
				idx, _ := m.find(addr)
				var got, want []Entry
				switch {
				case op == 8 && idx >= 0:
					b, pos := idx/m.perBuf(), idx%m.perBuf()
					got, want = f.FlushThroughInto(nil, idx), m.pop(b, pos+1)
				case idx >= 0 && r.Uint64()%2 == 0:
					b, pos := idx/m.perBuf(), idx%m.perBuf()
					got = []Entry{f.FlushOne(idx)}
					want = []Entry{m.bufs[b][pos]}
					m.bufs[b] = append(m.bufs[b][:pos], m.bufs[b][pos+1:]...)
				default:
					got = f.FlushAllInto(nil)
					for b := range m.bufs {
						want = append(want, m.pop(b, len(m.bufs[b]))...)
					}
				}
				if len(got) != 0 || len(want) != 0 {
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("depth %d step %d: flush %+v, model %+v", tc.depth, step, got, want)
					}
				}
			}
			if got, want := f.Entries(), m.entries(); (len(got) != 0 || len(want) != 0) && !reflect.DeepEqual(got, want) {
				t.Fatalf("depth %d step %d: entries %+v, model %+v", tc.depth, step, got, want)
			}
			if f.Occupancy() != m.occupancy() || f.Retiring() != m.retiring {
				t.Fatalf("depth %d step %d: occupancy/retiring diverged", tc.depth, step)
			}
		}
	}
}
