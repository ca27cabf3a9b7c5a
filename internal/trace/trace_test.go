package trace

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{Exec, "exec"}, {Load, "load"}, {Store, "store"}, {Kind(99), "invalid"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestMixAccounting(t *testing.T) {
	var m Mix
	m.Add(Ref{Kind: Load})
	m.Add(Ref{Kind: Load})
	m.Add(Ref{Kind: Store})
	m.Add(Ref{Kind: Exec})
	if m.Loads != 2 || m.Stores != 1 || m.Execs != 1 {
		t.Fatalf("mix = %+v, want 2 loads / 1 store / 1 exec", m)
	}
	if m.Total() != 4 {
		t.Errorf("Total = %d, want 4", m.Total())
	}
	if got := m.PctLoads(); got != 50 {
		t.Errorf("PctLoads = %v, want 50", got)
	}
	if got := m.PctStores(); got != 25 {
		t.Errorf("PctStores = %v, want 25", got)
	}
}

func TestMixEmpty(t *testing.T) {
	var m Mix
	if m.PctLoads() != 0 || m.PctStores() != 0 {
		t.Error("empty mix should report 0 percentages, not NaN")
	}
}

func TestMeasureMix(t *testing.T) {
	s := NewBuilder(0).Exec(3).Load(0).Store(8).Load(16).Stream()
	m := MeasureMix(s)
	if m.Execs != 3 || m.Loads != 2 || m.Stores != 1 {
		t.Fatalf("mix = %+v, want 3/2/1", m)
	}
}

// TestMeasureMixCountsRuns: a run-length-encoded Exec ref counts every
// instruction it stands for.
func TestMeasureMixCountsRuns(t *testing.T) {
	m := MeasureMix(NewSliceStream([]Ref{ExecRun(1000), {Kind: Load, Addr: 8}}))
	if m.Execs != 1000 || m.Loads != 1 || m.Total() != 1001 {
		t.Fatalf("mix = %+v, want 1000 execs and 1 load", m)
	}
}

func TestSliceStream(t *testing.T) {
	refs := []Ref{{Kind: Load, Addr: 1}, {Kind: Store, Addr: 2}}
	s := NewSliceStream(refs)
	r, ok := s.Next()
	if !ok || r.Addr != 1 {
		t.Fatalf("first Next = %v, %v", r, ok)
	}
	r, ok = s.Next()
	if !ok || r.Addr != 2 {
		t.Fatalf("second Next = %v, %v", r, ok)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream should be exhausted")
	}
}

func TestConcat(t *testing.T) {
	a := NewSliceStream([]Ref{{Kind: Load, Addr: 1}})
	b := NewSliceStream(nil)
	c := NewSliceStream([]Ref{{Kind: Store, Addr: 2}, {Kind: Exec}})
	got := collect(NewConcat(a, b, c))
	if len(got) != 3 || got[0].Addr != 1 || got[1].Addr != 2 || got[2].Kind != Exec {
		t.Fatalf("concat yielded %v", got)
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(8).Exec(2).Load(100).Store(200)
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	refs := b.Refs()
	if refs[0].Kind != Exec || refs[2].Kind != Load || refs[2].Addr != 100 ||
		refs[3].Kind != Store || refs[3].Addr != 200 {
		t.Fatalf("builder refs = %v", refs)
	}
}

// Property: MeasureMix totals always equal the number of refs fed in.
func TestMeasureMixTotalProperty(t *testing.T) {
	f := func(kinds []uint8) bool {
		refs := make([]Ref, len(kinds))
		for i, k := range kinds {
			refs[i] = Ref{Kind: Kind(k % 3)}
		}
		m := MeasureMix(NewSliceStream(refs))
		return m.Total() == uint64(len(refs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Concat preserves order and count.
func TestConcatProperty(t *testing.T) {
	f := func(na, nb uint8) bool {
		a := make([]Ref, na)
		for i := range a {
			a[i] = Ref{Kind: Load, Addr: mem.Addr(i)}
		}
		b := make([]Ref, nb)
		for i := range b {
			b[i] = Ref{Kind: Store, Addr: mem.Addr(i)}
		}
		got := collect(NewConcat(NewSliceStream(a), NewSliceStream(b)))
		want := append(a, b...)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
