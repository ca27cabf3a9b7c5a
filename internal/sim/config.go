// Package sim implements the paper's machine model (Section 2.1, Table 1):
// a single-issue processor with a write-through L1 data cache, a coalescing
// write buffer, and a second-level cache reached through a single port.
//
// The simulator is an instruction-level timing model.  Each dynamic
// instruction contributes one base cycle; the memory system adds stall
// cycles, and every stall cycle caused by the write buffer is attributed to
// exactly one of the paper's three categories (buffer-full, L2-read-access,
// load-hazard — Section 2.3, Table 3).  L2/memory read time for a load miss
// is charged to the miss itself, never to the write buffer, so results
// compare each configuration against an ideal buffer that never stalls.
//
// Write-buffer retirements run in the background.  Rather than ticking every
// cycle, the simulator advances retirement state lazily: before an
// instruction touches memory, drainTo replays every retirement that would
// have started before the current cycle.  Because retirement start times
// depend only on buffer state, the retirement policy, and L2-port
// availability — all of which change only at instruction boundaries — the
// lazy replay is cycle-exact while keeping simulation O(1) per instruction.
//
// # Execution paths
//
// The machine executes references two ways.  Step executes one reference
// at a time — the reference path, kept as the differential oracle.  Run
// consumes a trace.Generator in 4096-reference batches (StepBatch) with
// execute runs run-length encoded and retired in closed form, and it
// reproduces Step's counters, stall attribution, occupancy histograms, and
// CPI bit for bit (TestRunGeneratorMatchesRun).  A Row steps several
// machines over one generated stream; Row.Run is the production path
// every experiment and sweep runs.  Machines whose L1 contents follow
// the stream alone (perfect L2, no write cache, a flushing hazard policy,
// no statistical I-cache) share one L1 lookup per load with the others of
// their L1 geometry, and step a batch in which the L1 hits are folded
// into execute runs.  Every row machine still ends byte-identical to the
// same machine run alone (TestRowMatchesSingleJobs).  The paper's retirement
// policies are flattened to an integer switch at construction; custom
// policy types keep the interface dispatch.  Steady-state execution
// allocates nothing on either path.  docs/PERFORMANCE.md is the written
// performance model: the measurement protocol behind BENCH_sim.json, the
// per-instruction cost breakdown, and the checklist for keeping the hot
// path fast.
package sim

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/core"
)

// Config assembles a complete machine.
type Config struct {
	// L1 is the data cache (write-through, write-around).
	L1 cache.Config
	// L2 is the second-level cache; nil models the paper's perfect L2.
	L2 *cache.Config
	// L2ReadLat and L2WriteLat are the L2 access latencies in cycles
	// (both 6 in the baseline; Figure 11 sweeps 3/6/10).
	L2ReadLat  uint64
	L2WriteLat uint64
	// MemLat is the main-memory latency beyond L2 (25 or 50 cycles);
	// meaningful only with a finite L2.
	MemLat uint64
	// WB is the write-buffer geometry.
	WB core.Config
	// Org selects the write-buffer organization built over that geometry:
	// nil is the paper's single coalescing FIFO (never encoded, so
	// pre-existing configurations keep their content hashes), and
	// core.FTLOrg is the multi-buffer sector-masked family.  Custom
	// organizations register a machconf codec to travel through remote
	// workers and the result store.  A write cache
	// (WriteCacheDepth > 0) replaces the write buffer wholesale, so Org is
	// ignored there, like Retire and Hazard.
	Org core.OrgSpec
	// Backend selects the drain-side timing model every block write
	// (retirement, hazard flush, barrier drain) runs through: nil is the
	// paper's flat fixed latency (never encoded, so pre-existing
	// configurations keep their content hashes), backend.BankedSpec adds
	// DRAM-style bank/row contention, and backend.FencedSpec wraps either
	// with differentiated store-release vs full-fence costs.  Custom
	// backends register a machconf codec to travel through remote
	// workers and the result store.  Unlike Org, the backend also
	// applies under a write cache — it times the victim buffer's drains.
	Backend backend.Spec
	// Retire decides when the organization autonomously retires its victim
	// (the FIFO head; the fullest buffer's oldest entry under ftl).
	Retire core.RetirementPolicy
	// Hazard selects the load-hazard policy.
	Hazard core.HazardPolicy
	// WriteThreshold, when > 0, models the UltraSPARC-style priority
	// switch: loads bypass waiting writes until buffer occupancy reaches
	// the threshold, at which point the write buffer gets L2 priority and
	// the load waits for occupancy to drop below it.  0 (the default, and
	// the paper's choice) is pure read-bypassing.
	WriteThreshold int
	// IssueWidth models the Section 4.3 superscalar discussion: W
	// instructions issue per cycle (memory stalls still serialise), so
	// store density per cycle rises W-fold and the write buffer sees a
	// proportionally hotter stream.  0 or 1 is the paper's single-issue
	// machine.
	IssueWidth int
	// WriteTransferCycles is the extra time per block write beyond
	// L2WriteLat, modelling Section 4.3's narrower datapaths: a
	// half-line-wide path adds one transfer beat per write (and flush),
	// raising all three stall categories.  0 is the paper's
	// full-line-wide datapath.
	WriteTransferCycles uint64
	// WriteCacheDepth, when > 0, replaces the write buffer with a Jouppi
	// style write cache of that many fully associative, LRU-replaced
	// entries (plus a one-entry victim buffer that eagerly writes evicted
	// blocks to L2).  Loads read from the write cache directly, so the
	// Hazard policy setting is ignored; Retire only governs the victim
	// buffer and is forced to the eager policy.
	WriteCacheDepth int
	// ChargeWriteMissFetch, when true, charges MemLat extra for a
	// partial-line retirement that misses a finite L2 (the fetch-on-write
	// merge real write-allocate hardware performs).  The paper's timing
	// model charges a flat L2WriteLat for every block write "regardless
	// of whether the entry being written is full or not" (Table 1), so
	// this defaults to false; flipping it is an ablation.
	ChargeWriteMissFetch bool
	// IMissRate, when > 0, enables the Section 4.3 extension: each
	// instruction fetch misses a (statistically modelled) I-cache with
	// this probability and reads its line from L2, contending with write
	// retirements (the "L2-I-fetch" stall category).  0 models the
	// paper's perfect I-cache.
	IMissRate float64
	// ISeed seeds the deterministic I-miss draw (extension only).
	ISeed uint64
}

// Baseline returns the paper's baseline machine (Tables 1 and 2): 8 KB
// direct-mapped write-through L1 with 32 B lines, perfect L2 with 6-cycle
// latency, and a 4-deep cache-line-wide buffer using retire-at-2,
// flush-full, and read-bypassing.
func Baseline() Config {
	return Config{
		L1:         cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1},
		L2ReadLat:  6,
		L2WriteLat: 6,
		MemLat:     25,
		WB:         core.DefaultConfig(),
		Retire:     core.RetireAt{N: 2},
		Hazard:     core.FlushFull,
	}
}

// Validate checks the whole configuration, including the progress
// requirement that the retirement policy must be willing to retire from a
// full buffer — otherwise a blocked store would deadlock.
func (c Config) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("sim: L1: %w", err)
	}
	if c.L1.LineBytes != c.WB.Geometry.LineBytes() {
		return fmt.Errorf("sim: L1 line size %d differs from write-buffer geometry %d",
			c.L1.LineBytes, c.WB.Geometry.LineBytes())
	}
	if c.L2 != nil {
		if err := c.L2.Validate(); err != nil {
			return fmt.Errorf("sim: L2: %w", err)
		}
		if c.L2.LineBytes != c.L1.LineBytes {
			return fmt.Errorf("sim: L2 line size %d differs from L1 line size %d",
				c.L2.LineBytes, c.L1.LineBytes)
		}
		if c.L2.SizeBytes < c.L1.SizeBytes {
			return fmt.Errorf("sim: L2 (%d B) smaller than L1 (%d B) breaks inclusion",
				c.L2.SizeBytes, c.L1.SizeBytes)
		}
	}
	if c.L2ReadLat == 0 || c.L2WriteLat == 0 {
		return fmt.Errorf("sim: L2 latencies must be positive (read %d, write %d)",
			c.L2ReadLat, c.L2WriteLat)
	}
	if err := c.WB.Validate(); err != nil {
		return fmt.Errorf("sim: write buffer: %w", err)
	}
	if c.Org != nil {
		if err := c.Org.ValidateOrg(c.WB); err != nil {
			return fmt.Errorf("sim: buffer organization %q: %w", c.Org.OrgName(), err)
		}
	}
	if c.Backend != nil {
		if err := c.Backend.ValidateBackend(); err != nil {
			return fmt.Errorf("sim: backend %q: %w", c.Backend.BackendName(), err)
		}
	}
	if c.Retire == nil {
		return fmt.Errorf("sim: no retirement policy")
	}
	if _, ok := c.Retire.NextStart(c.WB.Depth, 0, 0, 0); !ok {
		return fmt.Errorf("sim: retirement policy %q refuses to retire from a full %d-deep buffer",
			c.Retire.Name(), c.WB.Depth)
	}
	if c.Hazard > core.ReadFromWB {
		return fmt.Errorf("sim: unknown hazard policy %d", c.Hazard)
	}
	if c.WriteThreshold < 0 || c.WriteThreshold > c.WB.Depth {
		return fmt.Errorf("sim: write-priority threshold %d outside [0,%d]",
			c.WriteThreshold, c.WB.Depth)
	}
	if c.IMissRate < 0 || c.IMissRate >= 1 {
		return fmt.Errorf("sim: I-miss rate %v outside [0,1)", c.IMissRate)
	}
	if c.WriteCacheDepth < 0 {
		return fmt.Errorf("sim: write-cache depth %d < 0", c.WriteCacheDepth)
	}
	if c.IssueWidth < 0 || c.IssueWidth > 16 {
		return fmt.Errorf("sim: issue width %d outside [0,16]", c.IssueWidth)
	}
	if c.WriteCacheDepth > 0 && c.WriteThreshold > 1 {
		return fmt.Errorf("sim: write-priority threshold is a write-buffer policy; " +
			"it does not combine with a write cache")
	}
	return nil
}

// WithWriteCache returns a copy using a write cache of the given depth in
// place of the write buffer.
func (c Config) WithWriteCache(depth int) Config {
	c.WriteCacheDepth = depth
	return c
}

// WithIssueWidth returns a copy issuing w instructions per cycle.
func (c Config) WithIssueWidth(w int) Config {
	c.IssueWidth = w
	return c
}

// WithDepth returns a copy with the write-buffer depth replaced — the
// experiment sweeps use these helpers to stay terse.
func (c Config) WithDepth(depth int) Config {
	c.WB.Depth = depth
	return c
}

// WithOrg returns a copy with the write-buffer organization replaced;
// nil restores the default FIFO.
func (c Config) WithOrg(o core.OrgSpec) Config {
	c.Org = o
	return c
}

// WithBackend returns a copy with the drain-side backend replaced;
// nil restores the paper's flat fixed latency.
func (c Config) WithBackend(b backend.Spec) Config {
	c.Backend = b
	return c
}

// WithRetire returns a copy with the retirement policy replaced.
func (c Config) WithRetire(p core.RetirementPolicy) Config {
	c.Retire = p
	return c
}

// WithHazard returns a copy with the load-hazard policy replaced.
func (c Config) WithHazard(h core.HazardPolicy) Config {
	c.Hazard = h
	return c
}

// WithL1Size returns a copy with the L1 capacity replaced.
func (c Config) WithL1Size(bytes int) Config {
	c.L1.SizeBytes = bytes
	return c
}

// WithL2Latency returns a copy with both L2 latencies replaced.
func (c Config) WithL2Latency(lat uint64) Config {
	c.L2ReadLat = lat
	c.L2WriteLat = lat
	return c
}

// WithL2 returns a copy with a finite L2 of the given size (32 B lines,
// direct-mapped, matching the L1 organisation of the era).
func (c Config) WithL2(sizeBytes int) Config {
	l2 := cache.Config{SizeBytes: sizeBytes, LineBytes: c.L1.LineBytes, Assoc: 1}
	c.L2 = &l2
	return c
}

// WithMemLat returns a copy with the main-memory latency replaced.
func (c Config) WithMemLat(lat uint64) Config {
	c.MemLat = lat
	return c
}
