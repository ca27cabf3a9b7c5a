package explore

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/machconf"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestDefaultSpaceEnumerates(t *testing.T) {
	cands, err := Default().Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	// 6 depths × 6 retire marks with retire ≤ depth: depth 1 keeps 1 mark,
	// 2 keeps 2, 4 keeps 3, 8 keeps 5, 12 keeps 6, 16 keeps 6 → 23 shapes,
	// each × 4 hazard policies.
	if want := 23 * 4; len(cands) != want {
		t.Fatalf("default space has %d candidates, want %d", len(cands), want)
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c.Hash] {
			t.Fatalf("duplicate hash %s (%s)", c.Hash, c.Label)
		}
		seen[c.Hash] = true
		if err := c.Cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Label, err)
		}
	}
}

func TestEnumerateDeterministicOrder(t *testing.T) {
	a, err := Default().Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Default().Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Hash != b[i].Hash || a[i].Label != b[i].Label {
			t.Fatalf("order differs at %d: %s vs %s", i, a[i].Label, b[i].Label)
		}
	}
}

func TestEnumerateRetireConstraint(t *testing.T) {
	s := &Space{Depths: []int{2}, Retires: []int{1, 2, 8}}
	cands, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2 (retire=8 > depth=2 must be dropped)", len(cands))
	}
}

func TestEnumerateWriteCachePinsBufferAxes(t *testing.T) {
	s := &Space{
		Depths:  []int{2, 8},
		Retires: []int{1, 2},
		Hazards: append([]core.HazardPolicy(nil), core.HazardPolicies...),
		WCaches: []int{0, 4},
	}
	cands, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	var wcache, buffer int
	for _, c := range cands {
		if c.Cfg.WriteCacheDepth > 0 {
			wcache++
		} else {
			buffer++
		}
	}
	// Buffer points: 2 depths × {1,2} retires (all ≤ depth) × 4 hazards.
	// The write cache ignores those axes, so it contributes exactly once.
	if buffer != 2*2*4 || wcache != 1 {
		t.Fatalf("buffer=%d wcache=%d, want 16 and 1", buffer, wcache)
	}
}

func TestEnumerateMaxCostAndFilter(t *testing.T) {
	s := &Space{Depths: []int{2, 16}, MaxCost: 16}
	cands, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if CostProxy(c.Cfg) > 16 {
			t.Fatalf("%s exceeds MaxCost", c.Label)
		}
	}
	s = &Space{Depths: []int{2, 16}, Filter: func(cfg sim.Config) bool { return cfg.WB.Depth != 16 }}
	cands, err = s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Cfg.WB.Depth == 16 {
			t.Fatalf("filter failed to drop depth 16")
		}
	}
}

func TestEnumerateEmptySpaceErrors(t *testing.T) {
	s := &Space{Depths: []int{4}, MaxCost: 1}
	if _, err := s.Enumerate(); err == nil {
		t.Fatal("expected error for a space with no legal configuration")
	}
}

// TestLabelsAreParseableSpecs: a candidate's label is a machconf spec that
// parses, over the space's base, to the candidate's own machine.  Write-cache
// candidates are exempt: the write cache pins a retirement policy (eager)
// that no spec key names.
func TestLabelsAreParseableSpecs(t *testing.T) {
	spaces := spaceFiles(t)
	spaces["default"] = Default()
	spaces["banked"] = bankedSpace()
	spaces["ftl"] = ftlSpace()
	spaces["fenced-base"] = fencedBaseSpace(t)
	spaces["fenced-release"] = fencedReleaseBaseSpace(t)
	spaces["rowhit-base"] = rowHitBaseSpace(t)
	for name, s := range spaces {
		cands, err := s.Enumerate()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range cands {
			if c.Cfg.WriteCacheDepth > 0 {
				continue
			}
			cfg, err := machconf.ParseSpecFrom(s.base(), c.Label)
			if err != nil {
				t.Errorf("%s: label %q does not parse: %v", name, c.Label, err)
				continue
			}
			if hash, _ := machconf.Hash(cfg); hash != c.Hash {
				t.Errorf("%s: label %q parses to a different machine than its candidate", name, c.Label)
			}
		}
	}
}

func TestLoadSpaceFile(t *testing.T) {
	s, err := Load([]byte(`{
		"base": "l2lat=10",
		"depths": [2, 4],
		"hazards": ["flush-full", "read-from-wb"],
		"max_cost": 64
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Depths, []int{2, 4}) || s.MaxCost != 64 {
		t.Fatalf("space = %+v", s)
	}
	// Case-insensitive hazard names resolve to the canonical policies.
	if len(s.Hazards) != 2 || s.Hazards[1] != core.ReadFromWB {
		t.Fatalf("hazards = %v", s.Hazards)
	}
	if s.Base == nil || s.Base.L2WriteLat != 10 {
		t.Fatalf("base not applied: %+v", s.Base)
	}
}

func TestLoadSpaceErrors(t *testing.T) {
	for name, blob := range map[string]string{
		"unknown field":  `{"depth": [2]}`,
		"unknown hazard": `{"hazards": ["bogus"]}`,
		"bad base":       `{"base": "mystery=1"}`,
		"trailing data":  `{"depths": [2]} {"depths": [4]}`,
		"not json":       `depths: [2]`,
	} {
		if _, err := Load([]byte(blob)); err == nil {
			t.Errorf("%s: unexpectedly loaded", name)
		}
	}
}

func TestCostProxy(t *testing.T) {
	cfg := sim.Baseline().WithDepth(8)
	if got := CostProxy(cfg); got != 8*cfg.WB.WordsPerEntry {
		t.Errorf("buffer cost = %d", got)
	}
	wc := sim.Baseline().WithWriteCache(8)
	if got, want := CostProxy(wc), 2*8*wc.WB.Geometry.WordsPerLine(); got != want {
		t.Errorf("write-cache cost = %d, want %d", got, want)
	}
}

func TestParetoMin(t *testing.T) {
	pts := []Point{
		{Label: "cheap-slow", Hash: "a", Cost: 4, CPIOverhead: 0.5},
		{Label: "mid", Hash: "b", Cost: 8, CPIOverhead: 0.3},
		{Label: "dominated", Hash: "c", Cost: 8, CPIOverhead: 0.4},
		{Label: "fast", Hash: "d", Cost: 16, CPIOverhead: 0.1},
		{Label: "dominated-2", Hash: "e", Cost: 32, CPIOverhead: 0.2},
		{Label: "dup", Hash: "aa", Cost: 4, CPIOverhead: 0.5}, // ties "cheap-slow"; hash "a" < "aa" keeps it
	}
	got := ParetoMin(pts)
	var labels []string
	for _, p := range got {
		labels = append(labels, p.Label)
	}
	want := []string{"cheap-slow", "mid", "fast"}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("frontier = %v, want %v", labels, want)
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"grid": "grid", "exhaustive": "grid", "random": "random", "guided": "guided",
	} {
		s, ok := ByName(name)
		if !ok || s.Name() != want {
			t.Errorf("ByName(%q) = %v, %v", name, s, ok)
		}
	}
	if _, ok := ByName("simulated-annealing"); ok {
		t.Error("unknown strategy resolved")
	}
}

// smallEnv is a fast Env for strategy behaviour tests: two benchmarks,
// short runs.
func smallEnv(seed uint64) Env {
	li, _ := workload.ByName("li")
	fft, _ := workload.ByName("fft")
	return Env{Benches: []workload.Benchmark{li, fft}, N: 20_000, Seed: seed}
}

func TestGridEvaluatesEverything(t *testing.T) {
	s := &Space{Depths: []int{2, 4}, Retires: []int{1}}
	res, err := Grid{}.Search(context.Background(), s, smallEnv(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluated) != 2 || res.SimsRun != 4 || res.SimsSkipped != 0 {
		t.Fatalf("grid: evaluated=%d run=%d skipped=%d", len(res.Evaluated), res.SimsRun, res.SimsSkipped)
	}
	if len(res.Frontier) == 0 || len(res.PerBench) != 2 {
		t.Fatalf("grid frontiers missing: %+v", res)
	}
	for i := 1; i < len(res.Evaluated); i++ {
		if res.Evaluated[i].CPIOverhead < res.Evaluated[i-1].CPIOverhead {
			t.Fatal("evaluations not ranked")
		}
	}
}

func TestRandomRespectsBudget(t *testing.T) {
	s := &Space{Depths: []int{1, 2, 4, 8}, Retires: []int{1}}
	env := smallEnv(7)
	env.Budget = 4 // two benches → 2 configurations
	res, err := Random{}.Search(context.Background(), s, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluated) != 2 {
		t.Fatalf("random evaluated %d configurations, want 2", len(res.Evaluated))
	}
	if res.CostSpent > env.Budget {
		t.Fatalf("random overspent: %.2f > %.2f", res.CostSpent, env.Budget)
	}
}

func TestGuidedRespectsBudget(t *testing.T) {
	s := &Space{
		Depths:  []int{1, 2, 4, 8},
		Retires: []int{1, 2, 4},
		Hazards: []core.HazardPolicy{core.FlushFull, core.ReadFromWB},
	}
	cands, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	env := smallEnv(3)
	env.Budget = 0.25 * float64(len(cands)*2)
	res, err := Guided{}.Search(context.Background(), s, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.CostSpent > env.Budget+1e-9 {
		t.Fatalf("guided overspent: %.2f > %.2f", res.CostSpent, env.Budget)
	}
	if res.Screened == 0 || len(res.Evaluated) == 0 {
		t.Fatalf("guided did no work: %+v", res)
	}
	if res.SimsSkipped != (len(cands)-res.Screened)*2 {
		t.Fatalf("skipped accounting wrong: %d", res.SimsSkipped)
	}
}
