package backend

import (
	"fmt"

	"repro/internal/mem"
)

// FencedSpec wraps another backend with differentiated barrier costs: a
// full membar pays FullCost after the buffer and banks drain, a
// store-release pays ReleaseCost after the buffer drains (a release
// orders the handoff, not the bank tails, so it never waits on Drained —
// internal/sim makes that distinction).  Both costs 0 over a nil Inner is
// cycle-identical to flat.
type FencedSpec struct {
	// Inner is the backend the writes themselves run through; nil means
	// flat.  Fenced cannot wrap fenced.
	Inner Spec
	// ReleaseCost and FullCost are the extra cycles a store-release /
	// full membar pays once its drain obligation is met.
	ReleaseCost uint64
	FullCost    uint64
}

// BackendName implements Spec.
func (s FencedSpec) BackendName() string { return "fenced" }

// ValidateBackend implements Spec.
func (s FencedSpec) ValidateBackend() error {
	if s.Inner != nil {
		if s.Inner.BackendName() == "fenced" {
			return fmt.Errorf("backend: fenced cannot wrap fenced")
		}
		if err := s.Inner.ValidateBackend(); err != nil {
			return fmt.Errorf("backend: fenced inner: %w", err)
		}
	}
	return nil
}

// NewBackend implements Spec.
func (s FencedSpec) NewBackend(geom mem.Geometry) Backend {
	if err := s.ValidateBackend(); err != nil {
		panic(err)
	}
	inner := NewFlat()
	if s.Inner != nil {
		inner = s.Inner.NewBackend(geom)
	}
	return &fenced{inner: inner, release: s.ReleaseCost, full: s.FullCost}
}

// fenced delegates all write timing to its inner backend and only answers
// FenceExtra itself.
type fenced struct {
	inner   Backend
	release uint64
	full    uint64
}

func (f *fenced) Write(addr mem.Addr, start, lat uint64) uint64 {
	return f.inner.Write(addr, start, lat)
}
func (f *fenced) Drained(now uint64) uint64 { return f.inner.Drained(now) }
func (f *fenced) FenceExtra(full bool) uint64 {
	if full {
		return f.full
	}
	return f.release
}
func (f *fenced) Stats() Stats { return f.inner.Stats() }
func (f *fenced) ResetStats()  { f.inner.ResetStats() }

var (
	_ Backend = (*fenced)(nil)
	_ Spec    = FencedSpec{}
)
