package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/mem"
)

// Trace files use a compact binary framing so recorded runs replay quickly:
// a magic header, then one varint-encoded record per reference.  Exec runs
// are run-length encoded, since they typically make up two thirds of a
// stream.
//
//	header:  "WBT1"
//	record:  kind byte ('x' exec-run, 'l' load, 's' store, 'b' membar,
//	         'r' release)
//	         'x' → uvarint run length
//	         'l'/'s' → uvarint byte address
//	         'b'/'r' → no payload
const traceMagic = "WBT1"

// recordKind maps each non-Exec Kind to its record byte.
var recordKind = [...]byte{Load: 'l', Store: 's', Membar: 'b', Release: 'r'}

// Write serialises the stream to w, returning the number of references
// written.  The stream is consumed.
func Write(w io.Writer, s Stream) (uint64, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return 0, err
	}
	var count, execRun uint64
	buf := make([]byte, binary.MaxVarintLen64)
	flushExecs := func() error {
		if execRun == 0 {
			return nil
		}
		if err := bw.WriteByte('x'); err != nil {
			return err
		}
		n := binary.PutUvarint(buf, execRun)
		execRun = 0
		_, err := bw.Write(buf[:n])
		return err
	}
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		count++
		if r.Kind == Exec {
			execRun++
			continue
		}
		if err := flushExecs(); err != nil {
			return count, err
		}
		kind := recordKind[r.Kind]
		if err := bw.WriteByte(kind); err != nil {
			return count, err
		}
		if kind == 'b' || kind == 'r' {
			continue
		}
		n := binary.PutUvarint(buf, uint64(r.Addr))
		if _, err := bw.Write(buf[:n]); err != nil {
			return count, err
		}
	}
	if err := flushExecs(); err != nil {
		return count, err
	}
	return count, bw.Flush()
}

// Reader streams references from a trace file produced by Write.
type Reader struct {
	br       *bufio.Reader
	execLeft uint64
	err      error
}

// NewReader validates the header and returns a streaming reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	return &Reader{br: br}, nil
}

// Next implements Stream.  After exhaustion or a decode error, it keeps
// returning false; Err distinguishes the two.
func (r *Reader) Next() (Ref, bool) {
	if r.err != nil {
		return Ref{}, false
	}
	if r.execLeft > 0 {
		r.execLeft--
		return Ref{Kind: Exec}, true
	}
	kind, err := r.br.ReadByte()
	if err != nil {
		if err != io.EOF {
			r.err = err
		}
		return Ref{}, false
	}
	switch kind {
	case 'x':
		n, err := binary.ReadUvarint(r.br)
		if err != nil || n == 0 {
			r.err = fmt.Errorf("trace: bad exec run: %v", err)
			return Ref{}, false
		}
		r.execLeft = n - 1
		return Ref{Kind: Exec}, true
	case 'b':
		return Ref{Kind: Membar}, true
	case 'r':
		return Ref{Kind: Release}, true
	case 'l', 's':
		addr, err := binary.ReadUvarint(r.br)
		if err != nil {
			r.err = fmt.Errorf("trace: bad address: %v", err)
			return Ref{}, false
		}
		k := Load
		if kind == 's' {
			k = Store
		}
		return Ref{Kind: k, Addr: mem.Addr(addr)}, true
	default:
		r.err = fmt.Errorf("trace: unknown record kind %q", kind)
		return Ref{}, false
	}
}

// Err reports the first decode error, if any.
func (r *Reader) Err() error { return r.err }
