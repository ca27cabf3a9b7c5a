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
// Workloads, trace files and the combinators all implement Generator;
// GeneratorStream decodes any of them one instruction at a time.
type Generator interface {
	Fill(buf []Ref) int
}

// GeneratorOf returns s as a Generator.
//
// Deprecated: every Stream is a Generator; use it directly.
func GeneratorOf(s Stream) Generator { return s }

// Fill implements Generator for SliceStream: one copy per batch instead of
// one interface call per reference.
func (s *SliceStream) Fill(buf []Ref) int {
	n := copy(buf, s.refs[s.pos:])
	s.pos += n
	return n
}

// GeneratorStream is the Stream view of a Generator: Next decodes its
// batches to one Ref per dynamic instruction, and Fill hands on what Next
// has not consumed.  The combinators read their inputs through it too,
// cutting Exec runs at quantum and period boundaries.
type GeneratorStream struct {
	g   Generator
	buf [256]Ref
	cur []Ref
	pos int
}

// NewGeneratorStream wraps g as a Stream.
func NewGeneratorStream(g Generator) *GeneratorStream {
	return &GeneratorStream{g: g}
}

// take copies refs of the wrapped generator into buf until buf is full or
// the copied refs stand for max instructions (max ≥ 1), whichever comes
// first; an Exec run that would cross max is cut there and its tail stays
// buffered.  It reports the refs copied and the instructions they stand
// for; 0 refs means the generator is exhausted.
func (s *GeneratorStream) take(buf []Ref, max uint64) (refs int, instrs uint64) {
	if s.pos >= len(s.cur) {
		n := s.g.Fill(s.buf[:])
		if n == 0 {
			return 0, 0
		}
		s.cur, s.pos = s.buf[:n], 0
	}
	src := s.cur[s.pos:min(len(s.cur), s.pos+len(buf))]
	for ; refs < len(src) && instrs < max; refs++ {
		k, left := src[refs].InstrCount(), max-instrs
		if k > left {
			src[refs] = ExecRun(k - left)
			buf[refs] = ExecRun(left)
			s.pos += refs
			return refs + 1, max
		}
		buf[refs] = src[refs]
		instrs += k
	}
	s.pos += refs
	return refs, instrs
}

// Next implements Stream, decoding run-length-encoded Exec refs back to
// one Ref per dynamic instruction.
func (s *GeneratorStream) Next() (Ref, bool) {
	var r [1]Ref
	if n, _ := s.take(r[:], 1); n == 0 {
		return Ref{}, false
	}
	if r[0].Kind == Exec {
		r[0].Addr = 0
	}
	return r[0], true
}

// Close closes the wrapped generator (see closeAll).
func (s *GeneratorStream) Close() error { return closeAll(s.g) }

// Fill implements Generator.  It first delivers what Next has buffered but
// not yet handed out — the rest of a split Exec run included — and fills
// the remainder of buf straight from the wrapped generator, so a stream
// nobody has called Next on costs no copy at all.
func (s *GeneratorStream) Fill(buf []Ref) int {
	n := copy(buf, s.cur[s.pos:])
	s.pos += n
	if n < len(buf) {
		n += s.g.Fill(buf[n:])
	}
	return n
}
