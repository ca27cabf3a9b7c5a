package trace

import (
	"errors"
	"io"

	"repro/internal/mem"
)

// SliceStream replays a fixed slice of references.  It is the workhorse of
// unit tests and of trace recording/replay.
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

// Concat chains several streams into one.
type Concat struct {
	streams []Stream
}

// NewConcat returns a stream that exhausts each argument in order.
func NewConcat(streams ...Stream) *Concat { return &Concat{streams: streams} }

// Next implements Stream.
func (c *Concat) Next() (Ref, bool) {
	for len(c.streams) > 0 {
		if r, ok := c.streams[0].Next(); ok {
			return r, true
		}
		c.streams = c.streams[1:]
	}
	return Ref{}, false
}

// Close closes the streams not yet exhausted (see closeAll).
func (c *Concat) Close() error { return closeAll(c.streams...) }

// Interleave round-robins several streams with a fixed quantum, modelling
// multiprogrammed execution: quantum references from the first stream,
// then the second, and so on, until every stream is exhausted.  (The
// paper's single-program traces omit OS and context-switch activity; this
// combinator lets experiments ask what time-slicing does to write-buffer
// and cache state.)
type Interleave struct {
	streams []Stream
	quantum uint64
	cur     int
	used    uint64
}

// NewInterleave returns a round-robin interleaving with the given quantum
// (minimum 1).
func NewInterleave(quantum uint64, streams ...Stream) *Interleave {
	if quantum == 0 {
		quantum = 1
	}
	return &Interleave{streams: streams, quantum: quantum}
}

// Next implements Stream.
func (in *Interleave) Next() (Ref, bool) {
	// fails counts consecutive exhausted streams; reaching the stream
	// count means everything is drained.
	for fails := 0; fails < len(in.streams); {
		if in.used >= in.quantum {
			in.cur = (in.cur + 1) % len(in.streams)
			in.used = 0
		}
		r, ok := in.streams[in.cur].Next()
		if !ok {
			in.used = in.quantum // force rotation off the spent stream
			fails++
			continue
		}
		in.used++
		return r, true
	}
	return Ref{}, false
}

// Close closes every interleaved stream (see closeAll).
func (in *Interleave) Close() error { return closeAll(in.streams...) }

// Inject interleaves a fixed reference into a stream every period yielded
// references — e.g. a memory barrier every 1000 instructions, modelling
// synchronisation-heavy multiprocessor code.
type Inject struct {
	inner  Stream
	ref    Ref
	period uint64
	count  uint64
}

// NewInject returns a stream yielding inner's references with ref inserted
// after every period of them.  period 0 disables injection.
func NewInject(inner Stream, ref Ref, period uint64) *Inject {
	return &Inject{inner: inner, ref: ref, period: period}
}

// Next implements Stream.
func (in *Inject) Next() (Ref, bool) {
	if in.period > 0 && in.count == in.period {
		in.count = 0
		return in.ref, true
	}
	r, ok := in.inner.Next()
	if ok {
		in.count++
	}
	return r, ok
}

// Close closes the inner stream (see closeAll).
func (in *Inject) Close() error { return closeAll(in.inner) }

// closeAll closes every element that implements io.Closer.  The
// combinators and the Stream/Generator adapters pass Close down this way,
// so closing a composed stream stops the kernel producer goroutines of the
// workloads inside it, which an abandoned stream would otherwise leak.
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
