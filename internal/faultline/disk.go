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
// makes a seeded, reproducible subset of entry files fail in a chosen way:
// at-rest bitrot, a torn write that escaped the atomic rename, a full disk,
// or a read error.  The same determinism rules as the network faults apply:
// the schedule is a pure function of (scenario seed, entry file name) — the
// file name is the SHA-256 of the store key, so the same sweep faults the
// same entries on every run, on every machine — and MaxFaults bounds how
// many operations on a targeted file fault before it behaves, so scrub and
// read-repair always converge.

// DiskKind names one disk failure mode.
type DiskKind string

const (
	// DiskBitrot persists an entry with one flipped bit — corruption that
	// sits at rest until a read trips over it.  Defense: the checksum
	// envelope turns it into a quarantine + repair from a healthy replica.
	DiskBitrot DiskKind = "disk-bitrot"
	// DiskTorn persists only a prefix of the entry — a torn write that
	// somehow escaped the write-then-rename protocol (a lying disk).
	// Defense: the envelope no longer parses; quarantine + repair.
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
	// Rate, in (0, 1], is the fraction of entry files targeted (by file
	// name, which is the hash of the store key — stable across runs,
	// replicas, and machines).
	Rate float64
	// MaxFaults bounds how many operations on a targeted file fault; the
	// actual budget is seeded per file in [1, MaxFaults].  Once spent, the
	// file behaves — so repairs always converge.
	MaxFaults int
	// Root, when non-empty, confines faults to paths under this directory
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

// fileID is the identity a file's fault schedule is keyed on: its base
// name, which for a store entry is the content address of the key.
func fileID(path string) []byte {
	sum := sha256.Sum256([]byte(filepath.Base(path)))
	return sum[:]
}

// TargetsPath reports whether the file at path is in the fault set.
func (s DiskScenario) TargetsPath(path string) bool {
	if s.Root != "" {
		rel, err := filepath.Rel(s.Root, path)
		if err != nil || strings.HasPrefix(rel, "..") {
			return false
		}
	}
	return s.sched().Targets(fileID(path))
}

// FaultBudget returns how many operations on a targeted file fault.
func (s DiskScenario) FaultBudget(path string) int {
	return s.sched().FaultCount(fileID(path))
}

// DiskInjector implements the result store's Disk interface with the
// scenario's faults injected.  It is safe for concurrent use and for
// sharing across every replica of a store (Root confines it).
type DiskInjector struct {
	sc DiskScenario

	mu    sync.Mutex
	spent map[string]int // file base name → faulted operations so far

	injected atomic.Int64
}

// NewDiskInjector builds the injector for one scenario.
func NewDiskInjector(sc DiskScenario) *DiskInjector {
	return &DiskInjector{sc: sc, spent: map[string]int{}}
}

// Injected reports how many faults fired — chaos tests assert it is
// non-zero so parity passes are never vacuous.
func (d *DiskInjector) Injected() int64 { return d.injected.Load() }

// take consumes one unit of the file's fault budget, reporting whether
// this operation should fault.
func (d *DiskInjector) take(path string) bool {
	if !d.sc.TargetsPath(path) {
		return false
	}
	base := filepath.Base(path)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.spent[base] >= d.sc.FaultBudget(path) {
		return false
	}
	d.spent[base]++
	d.injected.Add(1)
	return true
}

// ReadFile implements Disk.  Reads of files that do not exist miss for
// real — a fault budget is only spent where there are bytes to fail.
func (d *DiskInjector) ReadFile(path string) ([]byte, error) {
	if d.sc.Kind == DiskReadErr {
		if _, err := os.Stat(path); err == nil && d.take(path) {
			return nil, fmt.Errorf("faultline: injected read error on %s: %w", path, syscall.EIO)
		}
	}
	return os.ReadFile(path)
}

// WriteFile implements Disk: the same temp-fsync-rename protocol as the
// real store, with the scenario's write-side faults applied to the bytes
// (bitrot, torn write) or to the outcome (ENOSPC).
func (d *DiskInjector) WriteFile(path string, data []byte) error {
	switch d.sc.Kind {
	case DiskENOSPC:
		if d.take(path) {
			return fmt.Errorf("faultline: injected full disk on %s: %w", path, syscall.ENOSPC)
		}
	case DiskBitrot:
		if d.take(path) {
			rotted := make([]byte, len(data))
			copy(rotted, data)
			if len(rotted) > 0 {
				// Flip one seeded bit in the back half — payload territory,
				// the kind of corruption that still parses.
				off := len(rotted)/2 + int(d.sc.sched().hash64("bitoff", fileID(path))%uint64(len(rotted)-len(rotted)/2))
				rotted[off] ^= 1 << (d.sc.sched().hash64("bit", fileID(path)) % 8)
			}
			data = rotted
		}
	case DiskTorn:
		if d.take(path) {
			data = data[:len(data)/2]
		}
	}
	return atomicWrite(path, data)
}

// atomicWrite is the store's publish protocol: temp file in the final
// directory, fsync, rename.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
