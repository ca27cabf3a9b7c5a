package workload

import (
	"sync"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Emitter is the callback interface a kernel uses to produce references.
// Kernels are ordinary Go loops (a Cholesky factorisation, an FFT…) that
// call Load/Store/Exec as they touch their simulated arrays; the emitter
// turns those calls into a reference sequence via a producer goroutine,
// cutting the sequence off at the requested length.
type Emitter struct {
	out   chan []trace.Ref
	free  chan []trace.Ref // spent chunks returned by the consumer for reuse
	stop  chan struct{}    // closed when the consumer abandons the sequence
	chunk []trace.Ref
	left  uint64
}

const emitChunk = 4096

// stopEmit is the panic sentinel that unwinds a kernel once its instruction
// quota is exhausted or its consumer has stopped it.
type stopEmit struct{}

// Load emits a load of addr.
func (e *Emitter) Load(addr mem.Addr) { e.push(trace.Ref{Kind: trace.Load, Addr: addr}) }

// Store emits a store to addr.
func (e *Emitter) Store(addr mem.Addr) { e.push(trace.Ref{Kind: trace.Store, Addr: addr}) }

// Membar emits a full memory-barrier instruction (an Alpha MB): the
// machine drains the write buffer and waits for the drained stores to
// complete in the memory system before proceeding.
func (e *Emitter) Membar() { e.push(trace.Ref{Kind: trace.Membar}) }

// Release emits a store-release barrier: the machine drains the write
// buffer but only orders the handoff of prior stores, so under a
// fence-aware backend it is cheaper than a full Membar.
func (e *Emitter) Release() { e.push(trace.Ref{Kind: trace.Release}) }

// Exec emits n non-memory instructions as a single run-length-encoded
// reference (trace.ExecRun).  Kernels pad every inner-loop iteration with
// a run of these, so a thousand-instruction compute block costs one slot
// in the chunk and one closed-form clock advance in the simulator.
func (e *Emitter) Exec(n int) {
	if n <= 0 {
		return
	}
	if e.left == 0 {
		e.flush()
		panic(stopEmit{})
	}
	k := uint64(n)
	if k > e.left {
		k = e.left
	}
	e.left -= k
	e.chunk = append(e.chunk, trace.ExecRun(k))
	if len(e.chunk) == cap(e.chunk) {
		e.flush()
	}
	if k < uint64(n) {
		// Quota exhausted mid-run: flush what we have and stop the kernel.
		e.flush()
		panic(stopEmit{})
	}
}

func (e *Emitter) push(r trace.Ref) {
	if e.left == 0 {
		e.flush()
		panic(stopEmit{})
	}
	e.left--
	e.chunk = append(e.chunk, r)
	if len(e.chunk) == cap(e.chunk) {
		e.flush()
	}
}

func (e *Emitter) flush() {
	if len(e.chunk) == 0 {
		return
	}
	select {
	case e.out <- e.chunk:
	case <-e.stop:
		panic(stopEmit{})
	}
	// Reuse a chunk the consumer has finished with when one is waiting;
	// otherwise allocate.  In steady state the producer cycles through the
	// same few buffers, so a multi-million-reference kernel run allocates a
	// handful of chunks total instead of one per 4096 references.
	select {
	case c := <-e.free:
		e.chunk = c[:0]
	default:
		e.chunk = make([]trace.Ref, 0, emitChunk)
	}
}

// kernelGen adapts the producer goroutine to trace.Generator.
//
// A consumer that abandons the sequence before exhaustion must Close it:
// otherwise the producer stays parked on its channel send, holding its
// chunks, for the life of the process.
type kernelGen struct {
	ch   chan []trace.Ref
	free chan []trace.Ref
	stop chan struct{}
	once sync.Once
	cur  []trace.Ref
	pos  int
}

// newKernelGen runs body in a goroutine, restarting it as needed, until
// exactly n references have been produced.  body must emit at least one
// reference per invocation (every kernel here emits millions).
func newKernelGen(n uint64, body func(*Emitter)) trace.Generator {
	kg := &kernelGen{
		ch:   make(chan []trace.Ref, 4),
		free: make(chan []trace.Ref, 8),
		stop: make(chan struct{}),
	}
	go func() {
		defer close(kg.ch)
		e := &Emitter{out: kg.ch, free: kg.free, stop: kg.stop, left: n, chunk: make([]trace.Ref, 0, emitChunk)}
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopEmit); !ok {
					panic(r)
				}
			}
		}()
		for e.left > 0 {
			before := e.left
			body(e)
			if e.left == before {
				break // defensive: a body that emits nothing must not spin
			}
		}
		e.flush()
	}()
	return kg
}

// Close stops the producer goroutine; the sequence ends early.  It
// implements io.Closer and is safe to call more than once, including after
// exhaustion.
func (k *kernelGen) Close() error {
	k.once.Do(func() { close(k.stop) })
	return nil
}

// recycle hands the fully consumed current chunk back to the producer.
func (k *kernelGen) recycle() {
	if k.cur == nil {
		return
	}
	select {
	case k.free <- k.cur:
	default:
	}
	k.cur = nil
}

// Fill implements trace.Generator: whole chunks are copied into the
// caller's batch, one channel operation per 4096 references.
func (k *kernelGen) Fill(buf []trace.Ref) int {
	n := 0
	for n < len(buf) {
		if k.pos >= len(k.cur) {
			k.recycle()
			chunk, ok := <-k.ch
			if !ok {
				return n
			}
			k.cur, k.pos = chunk, 0
		}
		c := copy(buf[n:], k.cur[k.pos:])
		n += c
		k.pos += c
	}
	return n
}
