// Package trace defines the dynamic instruction-reference sequences
// consumed by the simulator.
//
// The paper produced its streams by instrumenting Alpha binaries with DEC's
// ATOM tool.  This repository replaces that proprietary pipeline with one
// producer interface, Generator: anything able to fill batches of Ref
// values — a synthetic kernel, a recorded trace, a hand-built slice — can
// drive the machine model, and the simulator never needs to know where
// references come from.  Generators may run-length encode runs of
// plain-execution instructions (ExecRun, Ref.InstrCount).
//
// Stream is the per-reference decode view, one Ref per dynamic
// instruction.  It serves the consumers that want references one at a
// time: the simulator's Step oracle, trace files (Write, Reader) and the
// combinators (Concat, Interleave, Inject).  GeneratorStream decodes a
// generator to a stream; GeneratorOf returns a stream's batched view.
package trace

import "repro/internal/mem"

// Kind classifies a dynamic instruction.
type Kind uint8

const (
	// Exec is an instruction with no data-memory reference (ALU, branch…).
	// It costs exactly one cycle in the paper's machine model.
	Exec Kind = iota
	// Load is a data-memory read (an Alpha LDx).
	Load
	// Store is a data-memory write (an Alpha STx).
	Store
	// Membar is a memory-barrier instruction (an Alpha MB).  The paper
	// notes that coalescing and read-bypassing buffers reorder stores, so
	// multiprocessor architectures provide barriers to restore ordering;
	// the simulator models one by draining the write buffer completely
	// before the barrier completes.
	Membar
	// Release is a store-release barrier: it drains the write buffer like
	// Membar but only orders the handoff of prior stores to the memory
	// system, so under a fence-aware backend it pays the cheaper release
	// cost and never waits for bank service tails.  Its stall cycles are
	// charged to stats.ReleaseDrain, not stats.MembarDrain.
	Release
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case Exec:
		return "exec"
	case Load:
		return "load"
	case Store:
		return "store"
	case Membar:
		return "membar"
	case Release:
		return "release"
	default:
		return "invalid"
	}
}

// Ref is one dynamic instruction.  For Load and Store kinds Addr is the
// byte address; the simulator derives line and word indices from it.
//
// In a Generator batch an Exec ref may be run-length encoded: Addr carries
// the number of consecutive plain-execution instructions the ref stands
// for (0 and 1 both mean a single one).  Only generators compress —
// Stream.Next always yields one Ref per dynamic instruction, with Addr
// zero on Exec refs — and only Exec refs carry a count, because they are
// the only kind with no address to carry and no per-instruction machine
// interaction beyond the clock.  InstrCount is the decoding accessor.
type Ref struct {
	Kind Kind
	Addr mem.Addr
}

// ExecRun returns the run-length-encoded Ref for k consecutive Exec
// instructions, valid inside Generator batches.
func ExecRun(k uint64) Ref { return Ref{Kind: Exec, Addr: mem.Addr(k)} }

// InstrCount returns how many dynamic instructions r stands for: the run
// length of a compressed Exec ref, 1 for everything else.
func (r Ref) InstrCount() uint64 {
	if r.Kind == Exec && r.Addr > 1 {
		return uint64(r.Addr)
	}
	return 1
}

// Stream produces a finite sequence of references.  Next returns the next
// reference and true, or a zero Ref and false after the stream is exhausted.
// Streams are single-use; a benchmark provides fresh ones on demand.
type Stream interface {
	Next() (Ref, bool)
}

// Mix summarises the dynamic instruction mix of a stream, mirroring the
// paper's Table 4.
type Mix struct {
	Execs    uint64
	Loads    uint64
	Stores   uint64
	Membars  uint64
	Releases uint64
}

// Total returns the total dynamic instruction count.
func (m Mix) Total() uint64 {
	return m.Execs + m.Loads + m.Stores + m.Membars + m.Releases
}

// PctLoads returns loads as a percentage of all instructions.
func (m Mix) PctLoads() float64 { return pct(m.Loads, m.Total()) }

// PctStores returns stores as a percentage of all instructions.
func (m Mix) PctStores() float64 { return pct(m.Stores, m.Total()) }

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// Add accumulates one reference into the mix.
func (m *Mix) Add(r Ref) {
	switch r.Kind {
	case Load:
		m.Loads++
	case Store:
		m.Stores++
	case Membar:
		m.Membars++
	case Release:
		m.Releases++
	default:
		m.Execs++
	}
}

// MeasureMix drains a stream and returns its instruction mix.
func MeasureMix(s Stream) Mix {
	var m Mix
	for {
		r, ok := s.Next()
		if !ok {
			return m
		}
		m.Add(r)
	}
}
