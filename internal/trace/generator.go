package trace

// Generator is the interface every reference producer implements and the
// simulator consumes.  Fill writes up to len(buf) references into buf and
// returns how many were written; 0 means the sequence is exhausted (a
// generator must never return 0 while references remain).  Generators are
// single-use and must yield a deterministic sequence.
//
// Filling whole batches amortises the producer's dispatch over thousands
// of references, and a generator may run-length encode Exec runs
// (Ref.InstrCount documents the encoding), so a kernel's
// thousand-instruction compute block is one ref instead of a thousand.
// Every workload implements Generator and nothing else; the Stream view
// of a generator is GeneratorStream, which decodes the batches.
type Generator interface {
	Fill(buf []Ref) int
}

// GeneratorOf returns the most efficient Generator view of s: streams that
// natively implement Generator (GeneratorStream, SliceStream) are returned
// as themselves, and anything else is wrapped in a per-reference adapter.
func GeneratorOf(s Stream) Generator {
	if g, ok := s.(Generator); ok {
		return g
	}
	return &streamGenerator{s: s}
}

// streamGenerator adapts an arbitrary Stream to Generator by calling Next
// per reference.  The combinators (Concat, Interleave, Inject) and trace
// files land here; they pay a per-reference dispatch, but their consumers
// still get the simulator's batched execution.
type streamGenerator struct {
	s Stream
}

// Fill implements Generator.
func (g *streamGenerator) Fill(buf []Ref) int {
	n := 0
	for n < len(buf) {
		r, ok := g.s.Next()
		if !ok {
			break
		}
		buf[n] = r
		n++
	}
	return n
}

// Close closes the wrapped stream (see closeAll).
func (g *streamGenerator) Close() error { return closeAll(g.s) }

// Fill implements Generator for SliceStream: one copy per batch instead of
// one interface call per reference.
func (s *SliceStream) Fill(buf []Ref) int {
	n := copy(buf, s.refs[s.pos:])
	s.pos += n
	return n
}

// GeneratorStream is the Stream view of a Generator: Next decodes its
// batches to one Ref per dynamic instruction, for the per-reference
// consumers (the Step oracle, trace recording, the combinators).  It is
// also a Generator itself, so GeneratorOf hands the batched view straight
// back to a batch consumer.
type GeneratorStream struct {
	g        Generator
	buf      [256]Ref
	cur      []Ref
	pos      int
	execLeft uint64 // undelivered tail of a run-length-encoded Exec ref
}

// NewGeneratorStream wraps g as a Stream.
func NewGeneratorStream(g Generator) *GeneratorStream {
	return &GeneratorStream{g: g}
}

// Next implements Stream, decoding run-length-encoded Exec refs back to
// one Ref per dynamic instruction (the Stream contract).
func (s *GeneratorStream) Next() (Ref, bool) {
	if s.execLeft > 0 {
		s.execLeft--
		return Ref{Kind: Exec}, true
	}
	if s.pos >= len(s.cur) {
		n := s.g.Fill(s.buf[:])
		if n == 0 {
			return Ref{}, false
		}
		s.cur, s.pos = s.buf[:n], 0
	}
	r := s.cur[s.pos]
	s.pos++
	if r.Kind == Exec {
		s.execLeft = r.InstrCount() - 1
		return Ref{Kind: Exec}, true
	}
	return r, true
}

// Close closes the wrapped generator (see closeAll).
func (s *GeneratorStream) Close() error { return closeAll(s.g) }

// Fill implements Generator.  It first delivers what Next has decoded but
// not yet handed out — the rest of a split Exec run, then the buffered
// refs — and fills the remainder of buf straight from the wrapped
// generator, so a stream nobody has called Next on costs no copy at all.
func (s *GeneratorStream) Fill(buf []Ref) int {
	n := 0
	if s.execLeft > 0 && len(buf) > 0 {
		buf[0] = ExecRun(s.execLeft)
		s.execLeft = 0
		n = 1
	}
	c := copy(buf[n:], s.cur[s.pos:])
	s.pos += c
	n += c
	if n < len(buf) {
		n += s.g.Fill(buf[n:])
	}
	return n
}
