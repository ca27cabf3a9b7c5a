package sim

import (
	"repro/internal/core"
	"repro/internal/mem"
)

// Write-stage organization accessors.  The machine drives its write stage
// through core.BufferOrg (m.org), but the overwhelmingly common
// organization is the paper's ring FIFO, so each accessor first checks the
// devirtualized m.rb and calls the concrete method the compiler can
// inline.  Every other organization (ftl, the write cache, a registered
// custom one) pays interface dispatch per call.

func (m *Machine) wbOccupancy() int {
	if rb := m.rb; rb != nil {
		return rb.Occupancy()
	}
	return m.org.Occupancy()
}

// wbHeld is the occupancy an arriving store observes.
func (m *Machine) wbHeld() int {
	if rb := m.rb; rb != nil {
		return rb.Occupancy()
	}
	return m.org.Held()
}

func (m *Machine) wbRetiring() bool {
	if rb := m.rb; rb != nil {
		return rb.Retiring()
	}
	return m.org.Retiring()
}

// wbHeadAlloc is the AllocCycle of the entry the next retirement would
// select (the FIFO head; the fullest buffer's oldest entry for ftl).  It
// tests m.rb without the local the other accessors take: that keeps it
// inside the inlining budget, and drainTo calls it on every store.
func (m *Machine) wbHeadAlloc() uint64 {
	if m.rb != nil {
		return m.rb.HeadAllocCycle()
	}
	return m.org.HeadAllocCycle()
}

func (m *Machine) wbStore(addr mem.Addr, t uint64) core.StoreResult {
	if rb := m.rb; rb != nil {
		return rb.Store(addr, t)
	}
	return m.org.Store(addr, t)
}

func (m *Machine) wbProbe(addr mem.Addr) (idx int, wordValid, hit bool) {
	if rb := m.rb; rb != nil {
		return rb.Probe(addr)
	}
	return m.org.Probe(addr)
}

func (m *Machine) wbFind(addr mem.Addr) int {
	if rb := m.rb; rb != nil {
		return rb.Find(addr)
	}
	return m.org.Find(addr)
}

func (m *Machine) wbCompleteRetire() {
	if rb := m.rb; rb != nil {
		rb.CompleteRetire()
		return
	}
	m.org.CompleteRetire()
}

func (m *Machine) wbFlushThroughInto(dst []core.Entry, idx int) []core.Entry {
	if rb := m.rb; rb != nil {
		return rb.FlushPrefixInto(dst, idx+1)
	}
	return m.org.FlushThroughInto(dst, idx)
}

func (m *Machine) wbFlushAllInto(dst []core.Entry) []core.Entry {
	if rb := m.rb; rb != nil {
		return rb.FlushAllInto(dst)
	}
	return m.org.FlushAllInto(dst)
}

func (m *Machine) wbFlushOne(idx int) core.Entry {
	if rb := m.rb; rb != nil {
		return rb.FlushOne(idx)
	}
	return m.org.FlushOne(idx)
}
