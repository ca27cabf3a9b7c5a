package trace

import (
	"errors"
	"io"

	"repro/internal/mem"
)

// SliceStream replays a fixed slice of references.  It is the workhorse of
// unit tests and hand-built sequences.
type SliceStream struct {
	refs []Ref
	pos  int
}

// NewSliceStream returns a stream over refs.  The slice is not copied; the
// caller must not mutate it while the stream is live.
func NewSliceStream(refs []Ref) *SliceStream { return &SliceStream{refs: refs} }

// Next implements Stream.
func (s *SliceStream) Next() (Ref, bool) {
	if s.pos >= len(s.refs) {
		return Ref{}, false
	}
	r := s.refs[s.pos]
	s.pos++
	return r, true
}

// Concat chains several generators into one.
type Concat struct {
	gens []Generator
}

// NewConcat returns a generator that exhausts each argument in order.
func NewConcat(gens ...Generator) *Concat { return &Concat{gens: gens} }

// Fill implements Generator.
func (c *Concat) Fill(buf []Ref) int {
	for len(c.gens) > 0 {
		if n := c.gens[0].Fill(buf); n > 0 {
			return n
		}
		c.gens = c.gens[1:]
	}
	return 0
}

// Close closes the generators not yet exhausted (see closeAll).
func (c *Concat) Close() error { return closeAll(c.gens...) }

// Interleave round-robins several generators with a fixed quantum,
// modelling multiprogrammed execution: quantum instructions from the
// first, then the second, and so on, until every one is exhausted; an Exec
// run is cut at the quantum boundary.  (The paper's single-program traces
// omit OS and context-switch activity; this combinator lets experiments
// ask what time-slicing does to write-buffer and cache state.)
type Interleave struct {
	streams []*GeneratorStream
	quantum uint64
	cur     int
	used    uint64
}

// NewInterleave returns a round-robin interleaving with the given quantum
// (minimum 1).
func NewInterleave(quantum uint64, gens ...Generator) *Interleave {
	if quantum == 0 {
		quantum = 1
	}
	in := &Interleave{quantum: quantum}
	for _, g := range gens {
		in.streams = append(in.streams, NewGeneratorStream(g))
	}
	return in
}

// Fill implements Generator.
func (in *Interleave) Fill(buf []Ref) int {
	n := 0
	// fails counts consecutive exhausted inputs; reaching the input count
	// means everything is drained.
	for fails := 0; n < len(buf) && fails < len(in.streams); {
		if in.used >= in.quantum {
			in.cur = (in.cur + 1) % len(in.streams)
			in.used = 0
		}
		k, instrs := in.streams[in.cur].take(buf[n:], in.quantum-in.used)
		if k == 0 {
			in.used = in.quantum // force rotation off the spent input
			fails++
			continue
		}
		fails = 0
		in.used += instrs
		n += k
	}
	return n
}

// Close closes every interleaved generator (see closeAll).
func (in *Interleave) Close() error { return closeAll(in.streams...) }

// Inject inserts a fixed reference after every period instructions of a
// generator, cutting Exec runs at the boundary — e.g. a memory barrier
// every 1000 instructions, modelling synchronisation-heavy code.
type Inject struct {
	inner  *GeneratorStream
	ref    Ref
	period uint64
	count  uint64
}

// NewInject returns inner with ref inserted after every period
// instructions.  period 0 disables injection.
func NewInject(inner Generator, ref Ref, period uint64) *Inject {
	return &Inject{inner: NewGeneratorStream(inner), ref: ref, period: period}
}

// Fill implements Generator.
func (in *Inject) Fill(buf []Ref) int {
	if in.period == 0 {
		return in.inner.Fill(buf)
	}
	n := 0
	for n < len(buf) {
		if in.count == in.period {
			in.count = 0
			buf[n] = in.ref
			n++
			continue
		}
		k, instrs := in.inner.take(buf[n:], in.period-in.count)
		if k == 0 {
			break
		}
		in.count += instrs
		n += k
	}
	return n
}

// Close closes the inner generator (see closeAll).
func (in *Inject) Close() error { return closeAll(in.inner) }

// closeAll closes every element that implements io.Closer.  The
// combinators and GeneratorStream pass Close down this way, so closing a
// composed generator stops the kernel producer goroutines of the workloads
// inside it, which an abandoned generator would otherwise leak.
func closeAll[T any](xs ...T) error {
	var errs []error
	for _, x := range xs {
		if c, ok := any(x).(io.Closer); ok {
			errs = append(errs, c.Close())
		}
	}
	return errors.Join(errs...)
}

// Builder assembles reference slices with a fluent API.  Workload kernels
// use it to express "do k cycles of compute, then this load, then this
// store" without littering append calls.
type Builder struct {
	refs []Ref
}

// NewBuilder returns an empty builder with capacity hint n.
func NewBuilder(n int) *Builder { return &Builder{refs: make([]Ref, 0, n)} }

// Exec appends n compute (non-memory) instructions.
func (b *Builder) Exec(n int) *Builder {
	for i := 0; i < n; i++ {
		b.refs = append(b.refs, Ref{Kind: Exec})
	}
	return b
}

// Load appends a load of addr.
func (b *Builder) Load(addr mem.Addr) *Builder {
	b.refs = append(b.refs, Ref{Kind: Load, Addr: addr})
	return b
}

// Store appends a store to addr.
func (b *Builder) Store(addr mem.Addr) *Builder {
	b.refs = append(b.refs, Ref{Kind: Store, Addr: addr})
	return b
}

// Refs returns the accumulated references.
func (b *Builder) Refs() []Ref { return b.refs }

// Stream returns a stream over the accumulated references.
func (b *Builder) Stream() *SliceStream { return NewSliceStream(b.refs) }

// Len returns how many references have been accumulated.
func (b *Builder) Len() int { return len(b.refs) }
