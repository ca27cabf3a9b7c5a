package faultline

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// Disk-fault injection.  DiskInjector implements resultstore's Disk seam
// (structurally — the interface is matched by shape, not by import) and
// makes a seeded, reproducible subset of records fail in a chosen way:
// at-rest bitrot, a torn write, a full disk, or a read error.  The same
// determinism rules as the network faults apply: the schedule is a pure
// function of (scenario seed, record id) — the id is the store key's
// address, so the same sweep faults the same keys on every run, on every
// machine — and MaxFaults bounds how many operations on a targeted key
// fault before it behaves, so scrub and read-repair always converge.

// DiskKind names one disk failure mode.
type DiskKind string

const (
	// DiskBitrot persists a record with one flipped bit — corruption that
	// sits at rest until a read trips over it.  Defense: the checksum
	// envelope turns it into a quarantine + repair from a healthy replica.
	DiskBitrot DiskKind = "disk-bitrot"
	// DiskTorn persists only a prefix of the record while reporting the
	// whole write done (a lying disk).  Defense: the record no longer
	// parses; quarantine + repair, and the next append starts a new line.
	DiskTorn DiskKind = "disk-torn-write"
	// DiskENOSPC fails the write outright with ENOSPC.  Defense: a
	// replicated Put is degraded, not failed; the scrubber completes the
	// mirror once the budget is exhausted (the operator freed space).
	DiskENOSPC DiskKind = "disk-enospc"
	// DiskReadErr fails reads with EIO.  Defense: first-healthy-copy-wins
	// falls through to the next replica; the scrubber treats the
	// unreadable copy as corrupt and rewrites it.
	DiskReadErr DiskKind = "disk-read-error"
)

// DiskScenario is one seeded disk-fault schedule.
type DiskScenario struct {
	// Name labels the scenario in tests and logs.
	Name string
	// Kind selects the failure mode.
	Kind DiskKind
	// Seed makes the schedule reproducible.
	Seed uint64
	// Rate, in (0, 1], is the fraction of keys targeted (by record id,
	// the key's address — stable across runs, replicas, and machines).
	Rate float64
	// MaxFaults bounds how many operations on a targeted key fault; the
	// actual budget is seeded per key in [1, MaxFaults].  Once spent, the
	// key's records behave — so repairs always converge.
	MaxFaults int
	// Root, when non-empty, confines faults to logs under this directory
	// — point it at one replica to corrupt that replica only.
	Root string
}

// DiskScenarios returns the canonical disk-fault suite, rates tuned so a
// small sweep is guaranteed injections and budgets small enough that every
// targeted entry heals within one scrub pass or two.
func DiskScenarios() []DiskScenario {
	return []DiskScenario{
		{Name: "disk-bitrot", Kind: DiskBitrot, Seed: 21, Rate: 0.5, MaxFaults: 1},
		{Name: "disk-torn-write", Kind: DiskTorn, Seed: 22, Rate: 0.5, MaxFaults: 1},
		{Name: "disk-enospc", Kind: DiskENOSPC, Seed: 23, Rate: 0.5, MaxFaults: 2},
		{Name: "disk-read-error", Kind: DiskReadErr, Seed: 24, Rate: 0.5, MaxFaults: 2},
	}
}

// sched reuses the network-fault schedule primitives: target selection and
// per-identity fault budgets drawn from the same seeded hash streams.
func (s DiskScenario) sched() Scenario {
	return Scenario{Seed: s.Seed, Rate: s.Rate, MaxFaults: s.MaxFaults}
}

// recordID is the identity a key's fault schedule is keyed on.
func recordID(id string) []byte {
	sum := sha256.Sum256([]byte(id))
	return sum[:]
}

// Targets reports whether the record id in the log at path is in the
// fault set.
func (s DiskScenario) Targets(path, id string) bool {
	if s.Root != "" {
		rel, err := filepath.Rel(s.Root, path)
		if err != nil || strings.HasPrefix(rel, "..") {
			return false
		}
	}
	return s.sched().Targets(recordID(id))
}

// FaultBudget returns how many operations on a targeted key fault.
func (s DiskScenario) FaultBudget(id string) int {
	return s.sched().FaultCount(recordID(id))
}

// DiskInjector implements the result store's Disk interface with the
// scenario's faults injected.  It is safe for concurrent use and for
// sharing across every replica of a store (Root confines it).
type DiskInjector struct {
	sc DiskScenario

	mu    sync.Mutex
	spent map[string]int // record id → faulted operations so far

	injected atomic.Int64
}

// NewDiskInjector builds the injector for one scenario.
func NewDiskInjector(sc DiskScenario) *DiskInjector {
	return &DiskInjector{sc: sc, spent: map[string]int{}}
}

// Injected reports how many faults fired — chaos tests assert it is
// non-zero so parity passes are never vacuous.
func (d *DiskInjector) Injected() int64 { return d.injected.Load() }

// take consumes one unit of the key's fault budget, reporting whether
// this operation should fault.
func (d *DiskInjector) take(log *os.File, id string) bool {
	if !d.sc.Targets(log.Name(), id) {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.spent[id] >= d.sc.FaultBudget(id) {
		return false
	}
	d.spent[id]++
	d.injected.Add(1)
	return true
}

// ReadRecord implements Disk.
func (d *DiskInjector) ReadRecord(log *os.File, id string, p []byte, off int64) (int, error) {
	if d.sc.Kind == DiskReadErr && d.take(log, id) {
		return 0, fmt.Errorf("faultline: injected read error on %s record %s: %w", log.Name(), id, syscall.EIO)
	}
	return log.ReadAt(p, off)
}

// AppendRecord implements Disk: one write, like the real store, with the
// scenario's write-side faults applied to the bytes (bitrot, torn write)
// or to the outcome (ENOSPC).
func (d *DiskInjector) AppendRecord(log *os.File, id string, data []byte) (int, error) {
	switch d.sc.Kind {
	case DiskENOSPC:
		if d.take(log, id) {
			return 0, fmt.Errorf("faultline: injected full disk on %s record %s: %w", log.Name(), id, syscall.ENOSPC)
		}
	case DiskBitrot:
		if d.take(log, id) {
			rotted := make([]byte, len(data))
			copy(rotted, data)
			// Flip one seeded bit in the back half, short of the final
			// newline — payload territory, the kind of corruption that
			// still parses.
			body := len(rotted) - 1
			off := body/2 + int(d.sc.sched().hash64("bitoff", recordID(id))%uint64(body-body/2))
			rotted[off] ^= 1 << (d.sc.sched().hash64("bit", recordID(id)) % 8)
			return log.Write(rotted)
		}
	case DiskTorn:
		if d.take(log, id) {
			if _, err := log.Write(data[:len(data)/2]); err != nil {
				return 0, err
			}
			return len(data), nil
		}
	}
	return log.Write(data)
}
