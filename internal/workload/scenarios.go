package workload

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
)

// The stress scenarios exist to exercise the drain side of the machine —
// the part the paper's SPEC92 traces never stress, because SPEC92 has no
// fences and its store bursts rarely outlive the buffer.  Their Target
// values are declared calibration targets, measured on the baseline
// machine and pinned by TestScenarioCalibration, not paper numbers.

// burstwProfile is the bursty-writer scenario: stores arrive in deep
// bursts (mean 8, against the suite's 2–4) and mostly scatter over a
// region far wider than one DRAM row, so back-to-back retirements land on
// random banks and rows.  Under the flat backend the burst drains at a
// fixed rate; under a banked backend its cost is governed by bank
// conflicts and row misses, which is exactly the contrast the scenario
// exists to expose.
var burstwProfile = Profile{
	Seed: 120, PctLoad: 12.0, PctStore: 22.0,
	ExecRun: 4, LoadRun: 2, StoreBurst: 8,
	LoadHot: 0.930, LoadRecent: 0.010, HotLines: 224,
	WarmLines: 2400, FarLines: 2000, FarFrac: 0.02,
	StoreSeq: 0.350, StoreLines: 2048, SeqRegionLines: 512,
}

// fenceprodParams tunes the fence-heavy producer/consumer scenario.
type fenceprodParams struct {
	slots       int // queue slots per pass
	slotLines   int // payload lines per slot
	execProd    int // compute per produced word
	execCons    int // compute per consumed word
	membarEvery int // one full membar every k published slots
}

// fenceprod models a single-queue producer/consumer: each slot's payload
// is written word by word, published with a store-release barrier (the
// payload must be handed to the memory system before the flag store), and
// then read back by the consumer; every membarEvery slots the roles
// resynchronise with a full memory barrier.  Release traffic dominates,
// so a fence-aware backend that charges releases less than full membars
// visibly changes this scenario and no other.
func fenceprod(p fenceprodParams) func(*Emitter) {
	payload := mat3Base
	flags := mat4Base
	return func(e *Emitter) {
		for slot := 0; slot < p.slots; slot++ {
			base := payload + mem.Addr(slot*p.slotLines)*lineBytes
			for l := 0; l < p.slotLines; l++ {
				for w := 0; w < mem.WordsPerLine; w++ {
					e.Exec(p.execProd)
					e.Store(base + mem.Addr(l)*lineBytes + mem.Addr(w)*mem.WordBytes)
				}
			}
			// Publish: the release orders the payload before the flag.
			e.Release()
			flag := flags + mem.Addr(slot)*mem.WordBytes
			e.Store(flag)
			// Consume: read the flag, then the payload.
			e.Load(flag)
			for l := 0; l < p.slotLines; l++ {
				for w := 0; w < mem.WordsPerLine; w++ {
					e.Load(base + mem.Addr(l)*lineBytes + mem.Addr(w)*mem.WordBytes)
					e.Exec(p.execCons)
				}
			}
			if p.membarEvery > 0 && (slot+1)%p.membarEvery == 0 {
				e.Membar()
			}
		}
	}
}

// fenceprodConfig is the registered instance; scenario tests assert its
// fence mix against FenceprodTargets.
var fenceprodConfig = fenceprodParams{
	slots: 64, slotLines: 2, execProd: 2, execCons: 2, membarEvery: 4,
}

// FenceTargets declares a scenario's expected barrier mix, in percent of
// dynamic instructions — the fence analogue of Target, pinned by the
// scenario calibration test.
type FenceTargets struct {
	PctReleases float64
	PctMembars  float64
}

// FenceprodTargets is the declared barrier mix of the fenceprod scenario:
// one release per published slot and one full membar every four slots.
// Per slot the kernel emits 9 stores, 9 loads, 32 exec-padding
// instructions, 1 release, and ¼ membar — 51¼ instructions — so releases
// land at 1.95% and membars at 0.49% of the stream.
var FenceprodTargets = FenceTargets{PctReleases: 1.95, PctMembars: 0.49}

// registerScenarioProfile mirrors registerProfile for the scenario
// registry.
func registerScenarioProfile(name string, target Target, p Profile) {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("workload: scenario %q: %v", name, err))
	}
	registerScenario(Benchmark{
		Name:   name,
		Group:  Scenario,
		Target: target,
		gen:    func(n uint64) trace.Generator { return newSynth(p, n) },
	})
}

func init() {
	registerScenarioProfile("burstw", Target{
		PctLoads: 12.0, PctStores: 22.0, L1HitRate: 87.8, WBHitRate: 16.0,
	}, burstwProfile)
	registerScenario(Benchmark{
		Name: "fenceprod", Group: Scenario,
		Target: Target{PctLoads: 17.6, PctStores: 17.6, L1HitRate: 99.9, WBHitRate: 66.7},
		gen: func(n uint64) trace.Generator {
			return newKernelGen(n, fenceprod(fenceprodConfig))
		},
	})
}
