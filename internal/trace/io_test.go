package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestWriteReadRoundTrip(t *testing.T) {
	refs := NewBuilder(0).
		Exec(5).Load(0x1000).Store(0x2008).Exec(1).Load(0xFFFF_FFF8).
		Store(0x30).Exec(100).
		Refs()
	var buf bytes.Buffer
	n, err := Write(&buf, NewSliceStream(refs))
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if n != uint64(len(refs)) {
		t.Fatalf("wrote %d refs, want %d", n, len(refs))
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	for i, want := range refs {
		got, ok := r.Next()
		if !ok || got != want {
			t.Fatalf("ref %d = %v,%v; want %v", i, got, ok, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("reader yielded past the end")
	}
	if r.Err() != nil {
		t.Fatalf("reader error: %v", r.Err())
	}
}

// TestWriteReadAllKinds: every Kind survives a round trip, barriers
// included — a Release must not come back as a load of address 0.
func TestWriteReadAllKinds(t *testing.T) {
	refs := []Ref{
		{Kind: Exec}, {Kind: Load, Addr: 0x40}, {Kind: Store, Addr: 0x48},
		{Kind: Membar}, {Kind: Release}, {Kind: Exec}, {Kind: Release},
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, NewSliceStream(refs)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	got := collect(r)
	if r.Err() != nil {
		t.Fatalf("reader error: %v", r.Err())
	}
	if len(got) != len(refs) {
		t.Fatalf("read %d refs, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Errorf("ref %d = %+v, want %+v", i, got[i], refs[i])
		}
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(strings.NewReader("WB")); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestReaderRejectsGarbageRecord(t *testing.T) {
	r, err := NewReader(strings.NewReader(traceMagic + "q"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("garbage record yielded a ref")
	}
	if r.Err() == nil {
		t.Fatal("garbage record produced no error")
	}
	// Errors are sticky.
	if _, ok := r.Next(); ok {
		t.Fatal("reader continued after error")
	}
}

func TestReaderTruncatedAddress(t *testing.T) {
	r, err := NewReader(strings.NewReader(traceMagic + "l"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok || r.Err() == nil {
		t.Fatal("truncated address not detected")
	}
}

func TestExecRunLengthEncoding(t *testing.T) {
	// A million execs must compress to a handful of bytes.
	var buf bytes.Buffer
	if _, err := Write(&buf, NewSliceStream(make([]Ref, 1_000_000))); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 16 {
		t.Errorf("1M execs encoded in %d bytes, expected run-length encoding", buf.Len())
	}
}

// Property: any reference sequence round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(kinds []uint8, addrs []uint32) bool {
		refs := make([]Ref, len(kinds))
		for i, k := range kinds {
			refs[i].Kind = Kind(k % 5)
			if (refs[i].Kind == Load || refs[i].Kind == Store) && i < len(addrs) {
				refs[i].Addr = mem.Addr(addrs[i])
			}
		}
		var buf bytes.Buffer
		if _, err := Write(&buf, NewSliceStream(refs)); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, want := range refs {
			got, ok := r.Next()
			if !ok || got != want {
				return false
			}
		}
		_, ok := r.Next()
		return !ok && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
