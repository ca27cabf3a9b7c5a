package trace

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func collect(s Stream) []Ref {
	var out []Ref
	for {
		r, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func TestInjectEveryPeriod(t *testing.T) {
	base := NewSliceStream(make([]Ref, 10))
	s := NewInject(base, Ref{Kind: Membar}, 3)
	refs := collect(s)
	// 10 base refs + a membar after every 3 = 3 membars.
	if len(refs) != 13 {
		t.Fatalf("yielded %d refs, want 13", len(refs))
	}
	for i, r := range refs {
		wantBar := i == 3 || i == 7 || i == 11
		if (r.Kind == Membar) != wantBar {
			t.Errorf("ref %d kind %v", i, r.Kind)
		}
	}
}

func TestInjectDisabled(t *testing.T) {
	base := NewSliceStream(make([]Ref, 5))
	refs := collect(NewInject(base, Ref{Kind: Membar}, 0))
	if len(refs) != 5 {
		t.Fatalf("period 0 changed the stream: %d refs", len(refs))
	}
}

func TestInterleaveRoundRobin(t *testing.T) {
	a := NewSliceStream([]Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}, {Addr: 4}})
	b := NewSliceStream([]Ref{{Addr: 101}, {Addr: 102}, {Addr: 103}, {Addr: 104}})
	s := NewInterleave(2, a, b)
	var addrs []mem.Addr
	for _, r := range collect(s) {
		addrs = append(addrs, r.Addr)
	}
	want := []mem.Addr{1, 2, 101, 102, 3, 4, 103, 104}
	if len(addrs) != len(want) {
		t.Fatalf("got %v, want %v", addrs, want)
	}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatalf("got %v, want %v", addrs, want)
		}
	}
}

func TestInterleaveUnevenStreams(t *testing.T) {
	a := NewSliceStream([]Ref{{Addr: 1}})
	b := NewSliceStream([]Ref{{Addr: 101}, {Addr: 102}, {Addr: 103}})
	refs := collect(NewInterleave(2, a, b))
	if len(refs) != 4 {
		t.Fatalf("yielded %d refs, want 4 (no loss when one stream ends early)", len(refs))
	}
}

func TestInterleaveZeroQuantum(t *testing.T) {
	a := NewSliceStream([]Ref{{Addr: 1}, {Addr: 2}})
	b := NewSliceStream([]Ref{{Addr: 101}})
	refs := collect(NewInterleave(0, a, b)) // clamps to 1
	if len(refs) != 3 {
		t.Fatalf("yielded %d refs, want 3", len(refs))
	}
	if refs[0].Addr != 1 || refs[1].Addr != 101 || refs[2].Addr != 2 {
		t.Fatalf("order wrong: %v", refs)
	}
}

func TestInterleaveEmpty(t *testing.T) {
	if refs := collect(NewInterleave(4, NewSliceStream(nil), NewSliceStream(nil))); len(refs) != 0 {
		t.Fatalf("two empty streams yielded %d refs", len(refs))
	}
}

// Property: interleaving preserves every reference exactly once, whatever
// the quantum and stream lengths.
func TestInterleaveConservationProperty(t *testing.T) {
	f := func(na, nb uint8, q uint8) bool {
		a := make([]Ref, na)
		for i := range a {
			a[i] = Ref{Addr: mem.Addr(i + 1)}
		}
		b := make([]Ref, nb)
		for i := range b {
			b[i] = Ref{Addr: mem.Addr(1000 + i)}
		}
		s := NewInterleave(uint64(q), NewSliceStream(a), NewSliceStream(b))
		got := collect(s)
		if len(got) != int(na)+int(nb) {
			return false
		}
		seen := map[mem.Addr]int{}
		for _, r := range got {
			seen[r.Addr]++
		}
		for _, r := range append(a, b...) {
			if seen[r.Addr] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Inject adds exactly floor(n/period) references.
func TestInjectCountProperty(t *testing.T) {
	f := func(n, period uint8) bool {
		if period == 0 {
			return true
		}
		base := NewSliceStream(make([]Ref, n))
		got := collect(NewInject(base, Ref{Kind: Membar}, uint64(period)))
		want := int(n) + int(n)/int(period)
		return len(got) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
