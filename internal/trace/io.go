package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/mem"
)

// Trace files use a compact binary framing so recorded runs replay quickly:
// a magic header, then one varint-encoded record per reference, then a
// trailer that lets the reader prove it decoded what was written.  Exec
// runs are run-length encoded, since they typically make up two thirds of
// a stream.
//
//	header:  "WBT2"
//	record:  kind byte ('x' exec-run, 'l' load, 's' store, 'b' membar,
//	         'r' release)
//	         'x' → uvarint run length
//	         'l'/'s' → uvarint byte address
//	         'b'/'r' → no payload
//	trailer: 'e', uvarint record count, 8-byte little-endian FNV-64a of
//	         every record byte (kind bytes and payloads, header and
//	         trailer excluded); nothing may follow it
//
// "WBT1" files, written before the trailer existed, are the same records
// with no trailer; they still read, unchecked, and end at end of file.
const (
	traceMagic   = "WBT2"
	uncheckedV1  = "WBT1"
	trailerKind  = 'e'
	fnv64aOffset = 14695981039346656037
	fnv64aPrime  = 1099511628211
)

// recordKind maps each non-Exec Kind to its record byte.
var recordKind = [...]byte{Load: 'l', Store: 's', Membar: 'b', Release: 'r'}

// fnv64a folds one byte into a running FNV-64a sum.
func fnv64a(sum uint64, b byte) uint64 { return (sum ^ uint64(b)) * fnv64aPrime }

// Write consumes the generator, serialising it to w with adjacent Exec
// refs merged into one record, and returns the instructions written.
func Write(w io.Writer, g Generator) (uint64, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return 0, err
	}
	var count, execRun, records uint64
	sum := uint64(fnv64aOffset)
	rec := make([]byte, 0, 1+binary.MaxVarintLen64)
	emit := func(rec []byte) error {
		records++
		for _, b := range rec {
			sum = fnv64a(sum, b)
		}
		_, err := bw.Write(rec)
		return err
	}
	flushExecs := func() error {
		if execRun == 0 {
			return nil
		}
		err := emit(binary.AppendUvarint(append(rec[:0], 'x'), execRun))
		execRun = 0
		return err
	}
	var buf [256]Ref
	for n := g.Fill(buf[:]); n > 0; n = g.Fill(buf[:]) {
		for _, r := range buf[:n] {
			count += r.InstrCount()
			if r.Kind == Exec {
				execRun += r.InstrCount()
				continue
			}
			if err := flushExecs(); err != nil {
				return count, err
			}
			rec = append(rec[:0], recordKind[r.Kind])
			if r.Kind == Load || r.Kind == Store {
				rec = binary.AppendUvarint(rec, uint64(r.Addr))
			}
			if err := emit(rec); err != nil {
				return count, err
			}
		}
	}
	if err := flushExecs(); err != nil {
		return count, err
	}
	trailer := binary.AppendUvarint([]byte{trailerKind}, records)
	trailer = binary.LittleEndian.AppendUint64(trailer, sum)
	if _, err := bw.Write(trailer); err != nil {
		return count, err
	}
	return count, bw.Flush()
}

// Reader is the Generator over a trace file produced by Write: each 'x'
// record fills one run-length-encoded Exec ref.
type Reader struct {
	in   summingReader
	err  error
	done bool

	// checked is set for "WBT2" files: records counts the records read,
	// and the trailer must match it and in.sum.
	checked bool
	records uint64
}

// summingReader is the record-byte source: every byte read through it
// folds into a running FNV-64a sum.
type summingReader struct {
	br  *bufio.Reader
	sum uint64
}

// ReadByte implements io.ByteReader, so varint payloads decode through it.
func (s *summingReader) ReadByte() (byte, error) {
	b, err := s.br.ReadByte()
	if err == nil {
		s.sum = fnv64a(s.sum, b)
	}
	return b, err
}

// NewReader validates the header and returns a reader over the records.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	switch string(head) {
	case traceMagic:
		return &Reader{in: summingReader{br: br, sum: fnv64aOffset}, checked: true}, nil
	case uncheckedV1:
		return &Reader{in: summingReader{br: br}}, nil
	}
	return nil, fmt.Errorf("trace: bad magic %q", head)
}

// Fill implements Generator.  After exhaustion or a decode error, it keeps
// returning 0; Err distinguishes the two.
func (r *Reader) Fill(buf []Ref) int {
	for n := range buf {
		ref, ok := r.read()
		if !ok {
			return n
		}
		buf[n] = ref
	}
	return len(buf)
}

// read decodes the next record.
func (r *Reader) read() (Ref, bool) {
	if r.err != nil || r.done {
		return Ref{}, false
	}
	if r.checked {
		if b, err := r.in.br.Peek(1); err == nil && b[0] == trailerKind {
			r.err = r.checkTrailer()
			r.done = true
			return Ref{}, false
		}
	}
	kind, err := r.in.ReadByte()
	if err != nil {
		switch {
		case err != io.EOF:
			r.err = err
		case r.checked:
			r.err = fmt.Errorf("trace: missing trailer after %d records (truncated file)", r.records)
		}
		r.done = true
		return Ref{}, false
	}
	r.records++
	switch kind {
	case 'x':
		n, err := binary.ReadUvarint(&r.in)
		if err != nil || n == 0 {
			r.err = fmt.Errorf("trace: bad exec run: %v", err)
			return Ref{}, false
		}
		return ExecRun(n), true
	case 'b':
		return Ref{Kind: Membar}, true
	case 'r':
		return Ref{Kind: Release}, true
	case 'l', 's':
		addr, err := binary.ReadUvarint(&r.in)
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

// checkTrailer reads the trailer and compares it with what was decoded.
func (r *Reader) checkTrailer() error {
	br := r.in.br
	br.ReadByte() // the trailer kind, already peeked
	records, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("trace: bad trailer: %v", err)
	}
	var sum [8]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return fmt.Errorf("trace: bad trailer: %v", err)
	}
	if records != r.records {
		return fmt.Errorf("trace: trailer counts %d records, decoded %d", records, r.records)
	}
	if got := binary.LittleEndian.Uint64(sum[:]); got != r.in.sum {
		return fmt.Errorf("trace: checksum mismatch: trailer %#016x, records hash to %#016x", got, r.in.sum)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("trace: data after trailer")
	}
	return nil
}

// Err reports the first decode or integrity error, if any.
func (r *Reader) Err() error { return r.err }
