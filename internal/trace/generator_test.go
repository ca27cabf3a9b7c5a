package trace

import (
	"testing"

	"repro/internal/mem"
)

// decode expands a generator's batches back to one Ref per dynamic
// instruction — the sequence the Stream contract yields.
func decode(g Generator, max int) []Ref {
	var out []Ref
	buf := make([]Ref, 64)
	for len(out) < max {
		n := g.Fill(buf)
		if n == 0 {
			break
		}
		for _, r := range buf[:n] {
			if r.Kind == Exec {
				for k := r.InstrCount(); k > 0; k-- {
					out = append(out, Ref{Kind: Exec})
				}
			} else {
				out = append(out, r)
			}
		}
	}
	return out
}

func TestExecRunInstrCount(t *testing.T) {
	if got := ExecRun(7).InstrCount(); got != 7 {
		t.Fatalf("ExecRun(7).InstrCount() = %d", got)
	}
	if got := ExecRun(1).InstrCount(); got != 1 {
		t.Fatalf("ExecRun(1).InstrCount() = %d", got)
	}
	for _, r := range []Ref{
		{Kind: Exec},
		{Kind: Load, Addr: 0x1234},
		{Kind: Store, Addr: 0x99},
		{Kind: Membar},
	} {
		if got := r.InstrCount(); got != 1 {
			t.Fatalf("%v.InstrCount() = %d, want 1", r, got)
		}
	}
	// A memory ref's Addr is an address, never a run length, no matter
	// its magnitude.
	if got := (Ref{Kind: Load, Addr: 4096}).InstrCount(); got != 1 {
		t.Fatalf("load at high address counts %d instructions", got)
	}
}

// TestGeneratorStreamFill: after a few Next calls, Fill must first hand
// out what Next decoded but did not deliver — the tail of a split Exec
// run, then the buffered refs — and the whole sequence must still decode
// to the wrapped generator's.
func TestGeneratorStreamFill(t *testing.T) {
	refs := []Ref{
		ExecRun(5),
		{Kind: Store, Addr: 0x100},
		{Kind: Load, Addr: 0x108},
		ExecRun(3),
		{Kind: Release},
	}
	want := decode(NewSliceStream(refs), 100)
	for next := 0; next <= len(want); next++ {
		s := NewGeneratorStream(NewSliceStream(refs))
		var got []Ref
		for i := 0; i < next; i++ {
			r, _ := s.Next()
			got = append(got, r)
		}
		got = append(got, decode(s, 100)...)
		if len(got) != len(want) {
			t.Fatalf("after %d Next calls: %d instructions, want %d", next, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("after %d Next calls: instruction %d = %+v, want %+v", next, i, got[i], want[i])
			}
		}
	}
	// A fresh GeneratorStream hands the wrapped generator's batches on
	// untouched, run-length encoding included.
	s := NewGeneratorStream(NewSliceStream(refs))
	buf := make([]Ref, len(refs))
	if n := s.Fill(buf); n != len(refs) || buf[0] != refs[0] || buf[3] != refs[3] {
		t.Fatalf("untouched stream filled %d refs %v, want the generator's batch %v", n, buf[:n], refs)
	}
}

// TestGeneratorStreamDecodesRuns: wrapping a run-length-encoding
// generator back into a Stream must restore the one-Ref-per-instruction
// contract.
func TestGeneratorStreamDecodesRuns(t *testing.T) {
	refs := []Ref{
		ExecRun(3),
		{Kind: Store, Addr: 0x100},
		ExecRun(1),
		{Kind: Load, Addr: 0x100},
	}
	s := NewGeneratorStream(NewSliceStream(refs))
	want := []Ref{
		{Kind: Exec}, {Kind: Exec}, {Kind: Exec},
		{Kind: Store, Addr: 0x100},
		{Kind: Exec},
		{Kind: Load, Addr: 0x100},
	}
	for i, w := range want {
		r, ok := s.Next()
		if !ok {
			t.Fatalf("stream ended at instruction %d", i)
		}
		if r != w {
			t.Fatalf("instruction %d = %+v, want %+v", i, r, w)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream should be exhausted")
	}
}

// TestSliceStreamFillMatchesNext: the two consumption modes of the same
// slice must yield identical sequences.
func TestSliceStreamFillMatchesNext(t *testing.T) {
	refs := make([]Ref, 300)
	for i := range refs {
		switch i % 3 {
		case 0:
			refs[i] = Ref{Kind: Load, Addr: mem.Addr(i * 8)}
		case 1:
			refs[i] = Ref{Kind: Store, Addr: mem.Addr(i * 8)}
		default:
			refs[i] = Ref{Kind: Exec} // Addr carries run length for Exec, so stays 0
		}
	}
	byNext := NewSliceStream(refs)
	byFill := decode(NewSliceStream(refs), len(refs)+10)
	for i := 0; ; i++ {
		r, ok := byNext.Next()
		if !ok {
			if i != len(byFill) {
				t.Fatalf("Next yielded %d refs, Fill %d", i, len(byFill))
			}
			return
		}
		if byFill[i] != r {
			t.Fatalf("ref %d: Fill %+v, Next %+v", i, byFill[i], r)
		}
	}
}
