// Package workload provides the 17 SPEC92-like benchmark reference streams
// the experiments run on, substituting for the paper's ATOM-instrumented
// Alpha binaries (which are not reproducible: SPEC92 sources, DEC compilers,
// and ATOM are all unavailable).
//
// Two families of generators are used:
//
//   - Profile-driven synthesis (synthetic.go): a deterministic state machine
//     parameterised per benchmark to match the paper's Table 4 dynamic
//     instruction mix and Table 5 L1/write-buffer hit rates, with knobs for
//     the properties the paper identifies as driving each stall category —
//     store burstiness and scatter (buffer-full), L1 locality
//     (L2-read-access), and loads of recently stored lines (load-hazard).
//
//   - Real computational kernels (kernels.go): Cholesky factorisation
//     (cholsky), Gaussian elimination (gmtry), a radix-2 FFT (fft), and a
//     2-D mesh smoother (tomcatv).  These walk real arrays with the real
//     loop structure, so the Table 6 loop-interchange/transposition
//     experiment is performed on the genuine article: the "bad" variants
//     traverse a row-major array down its columns exactly as the Fortran
//     originals did.
//
// A third, smaller family — stress scenarios (scenarios.go, Group
// Scenario, listed by Scenarios rather than All) — targets machine
// features the paper's traces cannot reach: burstw drives drain-side bank
// pressure with deep scattered store bursts, and fenceprod is a
// producer/consumer that publishes through store-release barriers and
// periodic full membars.
//
// Every generator is deterministic: the same benchmark always produces the
// same reference stream, so different write-buffer configurations are
// compared on identical workloads — exactly as the paper's trace-driven
// methodology requires.
//
// Both families implement trace.Generator and nothing else: they fill
// whole reference batches, run-length encode execute runs, and draw
// randomness through economy samplers (rng.Geo, joint line/word draws)
// that consume one RNG step where the original code consumed several.
// The exact stream realization for a given seed therefore differs from
// the original one-draw-per-decision one — a declared change; every
// governed distribution (mix, run-length law, locality classes,
// footprints) is unchanged, and the calibration tests pin them.
// Benchmark.Stream decodes a generator to one reference per instruction;
// TestGeneratorMatchesStream pins every benchmark's decoded sequence to
// recorded digests.  See docs/PERFORMANCE.md.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Group classifies benchmarks the way the paper's figures do.
type Group uint8

const (
	// SPECint92 integer codes.
	SPECint Group = iota
	// SPECfp92 floating-point codes.
	SPECfp
	// NASA kernels from nasa7.
	NASA
	// Scenario marks the synthetic stress scenarios that are not paper
	// benchmarks: they exist to exercise machine features the SPEC92-era
	// traces cannot (memory fences, drain-side bank pressure).  Scenarios
	// live in their own registry (Scenarios) so All keeps returning exactly
	// the paper's 17-benchmark suite.
	Scenario
)

// String implements fmt.Stringer.
func (g Group) String() string {
	switch g {
	case SPECint:
		return "SPECint92"
	case SPECfp:
		return "SPECfp92"
	case NASA:
		return "NASA"
	case Scenario:
		return "scenario"
	default:
		return fmt.Sprintf("group(%d)", uint8(g))
	}
}

// Target records the paper's measured statistics for a benchmark (Tables 4
// and 5), used for calibration and reported in EXPERIMENTS.md.
type Target struct {
	PctLoads  float64 // dynamic loads, % of instructions (Table 4)
	PctStores float64 // dynamic stores, % of instructions (Table 4)
	L1HitRate float64 // baseline L1 load hit rate, % (Table 5)
	WBHitRate float64 // baseline write-buffer store hit rate, % (Table 5)
}

// Benchmark is one workload: a name, its group, the paper's target
// statistics, and a deterministic generator factory.
type Benchmark struct {
	Name   string
	Group  Group
	Target Target
	gen    func(n uint64) trace.Generator
}

// Generator returns a fresh deterministic generator of exactly n dynamic
// instructions, plus n/period membars for a barrier-injected stream ("li /
// 1000").  A kernel benchmark's generator runs its kernel on a producer
// goroutine; a consumer that stops before exhaustion must close it (the
// generator implements io.Closer when it needs closing).
func (b Benchmark) Generator(n uint64) trace.Generator { return b.gen(n) }

// Stream returns the generator's per-reference decode view: one Ref per
// dynamic instruction (trace.GeneratorStream).
func (b Benchmark) Stream(n uint64) *trace.GeneratorStream {
	return trace.NewGeneratorStream(b.Generator(n))
}

// All lists the benchmarks in the paper's figure order: SPECint92, then
// SPECfp92, then the NASA kernels, each group ordered by baseline stall
// behaviour (Figure 3).
func All() []Benchmark {
	out := make([]Benchmark, len(registry))
	copy(out, registry)
	return out
}

// ByName finds a benchmark: a registered one (the suite, the transformed
// NASA kernel variants "cholsky-t" and "gmtry-t" and the stress scenarios
// "burstw" and "fenceprod"), or else a stream derived from registered ones,
// named in the grammar of derive (derived.go): "li~s1", "li / 1000",
// "li+compress / 10000", "bernoulli-q0.10".
func ByName(name string) (Benchmark, bool) {
	if b, ok := registered(name); ok {
		return b, true
	}
	return derive(name)
}

func registered(name string) (Benchmark, bool) {
	for _, list := range [][]Benchmark{registry, extras, scenarios} {
		for _, b := range list {
			if b.Name == name {
				return b, true
			}
		}
	}
	return Benchmark{}, false
}

// Scenarios lists the stress scenarios (Group Scenario): workloads that
// target machine features outside the paper's trace suite, currently the
// bursty writer (burstw) and the fence-heavy producer/consumer
// (fenceprod).  They are deliberately excluded from All so the paper's
// experiments keep running on exactly the paper's benchmarks.
func Scenarios() []Benchmark {
	out := make([]Benchmark, len(scenarios))
	copy(out, scenarios)
	return out
}

// Transformed returns the Table 6 variants: the gmtry and cholsky kernels
// after the loop-interchange/array-transposition transformations of Lebeck
// and Wood, which turn the column-major inner loops into row-major ones.
func Transformed() []Benchmark {
	out := make([]Benchmark, len(extras))
	copy(out, extras)
	return out
}

var (
	registry  []Benchmark
	extras    []Benchmark
	scenarios []Benchmark
)

func register(b Benchmark) {
	registry = append(registry, b)
}

func registerExtra(b Benchmark) {
	extras = append(extras, b)
}

func registerScenario(b Benchmark) {
	scenarios = append(scenarios, b)
}

// sortRegistry fixes the registry into the paper's presentation order no
// matter what order init functions ran in.
func sortRegistry() {
	order := map[string]int{
		"espresso": 0, "compress": 1, "uncompress": 2, "sc": 3, "cc1": 4, "li": 5,
		"doduc": 6, "hydro2d": 7, "mdljsp2": 8, "tomcatv": 9, "fpppp": 10,
		"mdljdp2": 11, "wave5": 12, "su2cor": 13,
		"fft": 14, "cholsky": 15, "gmtry": 16,
	}
	sort.SliceStable(registry, func(i, j int) bool {
		return order[registry[i].Name] < order[registry[j].Name]
	})
}
