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
	s := NewGeneratorStream(r)
	for i, want := range refs {
		got, ok := s.Next()
		if !ok || got != want {
			t.Fatalf("ref %d = %v,%v; want %v", i, got, ok, want)
		}
	}
	if _, ok := s.Next(); ok {
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
	buf := make([]Ref, 4)
	if n := r.Fill(buf); n != 0 {
		t.Fatal("garbage record yielded a ref")
	}
	if r.Err() == nil {
		t.Fatal("garbage record produced no error")
	}
	// Errors are sticky.
	if n := r.Fill(buf); n != 0 {
		t.Fatal("reader continued after error")
	}
}

func TestReaderTruncatedAddress(t *testing.T) {
	r, err := NewReader(strings.NewReader(traceMagic + "l"))
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Fill(make([]Ref, 4)); n != 0 || r.Err() == nil {
		t.Fatal("truncated address not detected")
	}
}

func TestExecRunLengthEncoding(t *testing.T) {
	// A million execs must compress to a handful of bytes.
	var buf bytes.Buffer
	if _, err := Write(&buf, NewSliceStream(make([]Ref, 1_000_000))); err != nil {
		t.Fatal(err)
	}
	// The fixed 10-byte trailer ('e', a one-byte record count, the 8-byte
	// checksum) rides on top of the header and the records.
	if buf.Len() > 16+10 {
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
		s := NewGeneratorStream(r)
		for _, want := range refs {
			got, ok := s.Next()
			if !ok || got != want {
				return false
			}
		}
		_, ok := s.Next()
		return !ok && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReaderReadsUncheckedV1: a file written before the trailer existed
// ("WBT1", records only) still decodes, and its end of file is a clean end.
func TestReaderReadsUncheckedV1(t *testing.T) {
	r, err := NewReader(strings.NewReader("WBT1" + "x\x03" + "l\x40" + "s\x48" + "b" + "r"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Ref{{Kind: Exec}, {Kind: Exec}, {Kind: Exec}, {Kind: Load, Addr: 0x40},
		{Kind: Store, Addr: 0x48}, {Kind: Membar}, {Kind: Release}}
	got := collect(r)
	if r.Err() != nil {
		t.Fatalf("WBT1 read failed: %v", r.Err())
	}
	if len(got) != len(want) {
		t.Fatalf("read %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ref %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReaderChecksTrailer: damage that leaves every record decodable —
// a changed address, a dropped record, a cut-off or extended trailer — is
// caught by the trailer and reported through Err.
func TestReaderChecksTrailer(t *testing.T) {
	refs := []Ref{{Kind: Exec}, {Kind: Exec}, {Kind: Exec}, {Kind: Load, Addr: 0x40},
		{Kind: Store, Addr: 0x48}, {Kind: Membar}, {Kind: Exec}, {Kind: Exec}}
	var buf bytes.Buffer
	if _, err := Write(&buf, NewSliceStream(refs)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if !bytes.HasPrefix(good, []byte("WBT2")) {
		t.Fatalf("header %q, want WBT2", good[:4])
	}
	records := good[4 : len(good)-10] // 'x' 3 'l' 0x40 's' 0x48 'b' 'x' 2
	damaged := func(edit func(recs []byte) []byte, trailer []byte) []byte {
		recs := edit(append([]byte(nil), records...))
		out := append([]byte("WBT2"), recs...)
		return append(out, trailer...)
	}
	trailer := good[len(good)-10:]
	for name, data := range map[string][]byte{
		"address changed": damaged(func(r []byte) []byte { r[3] ^= 0x08; return r }, trailer),
		"record dropped":  damaged(func(r []byte) []byte { return append(r[:6], r[7:]...) }, trailer),
		"trailer cut off": damaged(func(r []byte) []byte { return r }, trailer[:9]),
		"no trailer":      damaged(func(r []byte) []byte { return r }, nil),
		"data after it":   damaged(func(r []byte) []byte { return r }, append(append([]byte(nil), trailer...), 'b')),
	} {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		collect(r)
		if r.Err() == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	r, _ := NewReader(bytes.NewReader(good))
	if got := collect(r); len(got) != len(refs) || r.Err() != nil {
		t.Fatalf("undamaged file: %d refs, err %v", len(got), r.Err())
	}
}

// TestWriteMergesRuns: adjacent Exec refs, run-length encoded or not,
// become one 'x' record of their total length.
func TestWriteMergesRuns(t *testing.T) {
	var buf bytes.Buffer
	n, err := Write(&buf, NewSliceStream([]Ref{ExecRun(3), ExecRun(1), {Kind: Exec}, {Kind: Load, Addr: 0x40}}))
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("wrote %d instructions, want 6", n)
	}
	if recs := buf.Bytes()[4 : buf.Len()-10]; string(recs) != "x\x05l\x40" {
		t.Fatalf("records %q, want one exec run of 5 then the load", recs)
	}
}

// FuzzReader: after a valid header, arbitrary bytes never panic Fill and
// nothing is filled once Err is set; and the same bytes read as a
// reference sequence round-trip through Write and Reader to the same
// decoded sequence.
func FuzzReader(f *testing.F) {
	var good bytes.Buffer
	if _, err := Write(&good, NewSliceStream([]Ref{ExecRun(3), {Kind: Load, Addr: 0x40},
		{Kind: Store, Addr: 0x48}, {Kind: Membar}, {Kind: Release}, ExecRun(2)})); err != nil {
		f.Fatal(err)
	}
	f.Add(false, good.Bytes()[4:])
	f.Add(true, []byte("x\x03l\x40s\x48br"))
	f.Add(false, []byte("x\x00"))
	f.Add(false, []byte("e\x01"))
	f.Fuzz(func(t *testing.T, v1 bool, data []byte) {
		header := traceMagic
		if v1 {
			header = uncheckedV1
		}
		r, err := NewReader(bytes.NewReader(append([]byte(header), data...)))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]Ref, 5)
		for {
			failed := r.Err() != nil
			n := r.Fill(buf)
			if failed && n != 0 {
				t.Fatalf("filled %d refs after error %v", n, r.Err())
			}
			if n == 0 {
				break
			}
		}

		refs := fuzzRefs(data)
		var file bytes.Buffer
		if _, err := Write(&file, NewSliceStream(refs)); err != nil {
			t.Fatal(err)
		}
		back, err := NewReader(&file)
		if err != nil {
			t.Fatal(err)
		}
		want, got := collect(NewSliceStream(refs)), collect(back)
		if back.Err() != nil {
			t.Fatalf("reading back: %v", back.Err())
		}
		if len(got) != len(want) {
			t.Fatalf("read back %d instructions, wrote %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("instruction %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// fuzzRefs reads data as a reference sequence: a kind byte, then for a
// load or store one address byte, and for an exec a run length of 0–7.
func fuzzRefs(data []byte) []Ref {
	var refs []Ref
	for i := 0; i+1 < len(data); i += 2 {
		r := Ref{Kind: Kind(data[i] % 5)}
		switch r.Kind {
		case Exec:
			r = ExecRun(uint64(data[i+1] % 8))
		case Load, Store:
			r.Addr = mem.Addr(data[i+1]) * 8
		}
		refs = append(refs, r)
	}
	return refs
}
