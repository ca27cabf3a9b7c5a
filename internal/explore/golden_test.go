package explore

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// enumDigest is the FNV-64a digest of a candidate list: label, tab, hash,
// newline, in candidate order.
func enumDigest(cands []Candidate) string {
	h := fnv.New64a()
	for _, c := range cands {
		fmt.Fprintf(h, "%s\t%s\n", c.Label, c.Hash)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// multiAxisBases are the base machines the multi-axis golden spaces run
// over: a plain environment edit, a buffer edit, a banked backend, an ftl
// organization, and a finite L2 with its own memory latency.
var multiAxisBases = []string{
	"l2lat=10",
	"depth=12,retire=8,hazard=read-from-WB",
	"banks=4,rowmiss=18",
	"numbuffers=2",
	"l2=1048576,memlat=50",
}

// multiAxisSpaces returns two spaces over base: one crossing the buffer,
// organization, backend, fence and write-cache axes, and one crossing the
// remaining axes (width, aging, hazard, sector bits, the cache
// environment and the banked timing).
func multiAxisSpaces(t testing.TB, base string) (shape, env *Space) {
	t.Helper()
	shape = mustLoad(t, `{"base": "`+base+`", "depths": [2, 4, 8], "retires": [1, 2, 4],
		"orgs": ["fifo", "ftl"], "numbuffers": [1, 2], "backends": ["flat", "banked"],
		"banks": [1, 4], "fence_costs": [0, 20], "wcaches": [0, 4]}`)
	env = mustLoad(t, `{"base": "`+base+`", "widths": [2, 4], "agings": [0, 50],
		"hazards": ["flush-full", "read-from-WB"], "orgs": ["fifo", "ftl"], "sectorbits": [0, 1],
		"wcaches": [0, 8], "l1_sizes": [4096, 8192], "l2_lats": [6, 10],
		"l2_sizes": [0, 1048576], "mem_lats": [25, 50], "backends": ["flat", "banked"],
		"rowhits": [0, 6], "rowmisses": [18, 30]}`)
	return shape, env
}

func mustLoad(t testing.TB, blob string) *Space {
	t.Helper()
	s, err := Load([]byte(blob))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// goldenSpaces names every space whose candidate list is pinned: the
// spaces/ files, Default, the served grid perfbench builds, the example's
// space, the spaces the explore and analytic tests enumerate, and the
// multi-axis spaces over each base.
func goldenSpaces(t testing.TB) map[string]*Space {
	t.Helper()
	hazards := append([]core.HazardPolicy(nil), core.HazardPolicies...)
	spaces := map[string]*Space{
		"default": Default(),
		// A copy of perfbench's served grid.
		"served": {
			Depths:  []int{1, 2, 3, 4, 6, 8, 10, 12, 14, 16},
			Retires: []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16},
			Hazards: hazards,
			L1Sizes: []int{4 << 10, 8 << 10, 16 << 10},
			L2Lats:  []uint64{3, 6, 9, 12},
			MemLats: []uint64{25, 50, 100},
		},
		"example": {
			Depths:  []int{2, 4, 8, 12},
			Retires: []int{1, 2, 4, 8},
			Hazards: []core.HazardPolicy{core.FlushFull, core.ReadFromWB},
			MaxCost: 64,
		},
		"analytic": {
			Depths:  []int{2, 4, 6, 8, 12},
			Retires: []int{1, 2, 4, 6, 10},
			Hazards: []core.HazardPolicy{core.FlushFull},
		},
		"det":             detSpace(),
		"banked":          bankedSpace(),
		"ftl":             ftlSpace(),
		"fenced-base":     fencedBaseSpace(t),
		"fenced-release":  fencedReleaseBaseSpace(t),
		"rowhit-base":     rowHitBaseSpace(t),
		"retire-drop":     {Depths: []int{2}, Retires: []int{1, 2, 8}},
		"wcache-pins":     {Depths: []int{2, 8}, Retires: []int{1, 2}, Hazards: hazards, WCaches: []int{0, 4}},
		"max-cost":        {Depths: []int{2, 16}, MaxCost: 16},
		"filter":          {Depths: []int{2, 16}, Filter: func(cfg sim.Config) bool { return cfg.WB.Depth != 16 }},
		"labels":          {Depths: []int{2, 8}, Retires: []int{1, 2}, Hazards: []core.HazardPolicy{core.FlushFull, core.ReadFromWB}},
		"grid":            {Depths: []int{2, 4}, Retires: []int{1}},
		"random":          {Depths: []int{1, 2, 4, 8}, Retires: []int{1}},
		"guided":          {Depths: []int{1, 2, 4, 8}, Retires: []int{1, 2, 4}, Hazards: []core.HazardPolicy{core.FlushFull, core.ReadFromWB}},
		"quality":         {Depths: []int{2, 4, 8, 12}, Retires: []int{1, 2, 4, 8}, Hazards: []core.HazardPolicy{core.FlushFull, core.ReadFromWB}},
		"store-sharing":   {Depths: []int{2, 4, 8}, Retires: []int{1, 2}},
		"backend-wcache":  {WCaches: []int{0, 8}, Backends: []string{"flat", "banked"}, Banks: []int{4}, RowMisses: []uint64{18}},
		"indivisible":     {Depths: []int{4}, Orgs: []string{"ftl"}, NumBufs: []int{2, 8}},
		"wcache-pins-org": {Orgs: []string{"fifo", "ftl"}, NumBufs: []int{1, 2}, WCaches: []int{0, 8}},
	}
	for name, s := range spaceFiles(t) {
		spaces[name] = s
	}
	for i, base := range multiAxisBases {
		shape, env := multiAxisSpaces(t, base)
		spaces[fmt.Sprintf("shape@%d", i)] = shape
		spaces[fmt.Sprintf("env@%d", i)] = env
	}
	return spaces
}

// spaceFiles loads every space in spaces/, keyed "spaces/<file>".
func spaceFiles(t testing.TB) map[string]*Space {
	t.Helper()
	files, err := filepath.Glob("../../spaces/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no space files: %v", err)
	}
	spaces := map[string]*Space{}
	for _, f := range files {
		if spaces["spaces/"+filepath.Base(f)], err = LoadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	return spaces
}

// fencedBaseSpace sweeps the backend under a fenced base whose release
// cost no backend key resets.
func fencedBaseSpace(t testing.TB) *Space {
	return mustLoad(t, `{"base": "fencecost=20,releasecost=4", "depths": [4, 8],
		"backends": ["flat", "banked"], "banks": [4]}`)
}

// fencedReleaseBaseSpace sweeps only the depth under a base whose fence
// has a release cost and no full cost: every candidate keeps the fence.
func fencedReleaseBaseSpace(t testing.TB) *Space {
	return mustLoad(t, `{"base": "releasecost=4", "depths": [4, 8]}`)
}

// rowHitBaseSpace sweeps the row-hit time down to zero under a banked base
// whose row-hit time is not zero.
func rowHitBaseSpace(t testing.TB) *Space {
	return mustLoad(t, `{"base": "banks=4,rowhit=6", "depths": [4], "rowhits": [0, 6]}`)
}

// TestEnumerateGolden pins every golden space's candidate list — count
// and digest over (label, hash) in order — so a change to how candidates
// are built cannot move a label, a machine or the order unnoticed.
func TestEnumerateGolden(t *testing.T) {
	want := map[string]struct {
		n      int
		digest string
	}{
		"analytic":       {18, "96e27bc0feb1e3da"},
		"backend-wcache": {4, "e2459bea939a35a5"},
		"banked":         {12, "fca7bb6257b9a384"},
		"default":        {92, "4af5ea18a2f4c752"},
		"det":            {16, "82300f7d17eecba7"},
		"env@0":          {1500, "3badb69976874e5b"},
		"env@1":          {1500, "4f845e064ec13935"},
		"env@2":          {1500, "cc2de40f803f953b"},
		"env@3":          {1500, "43d02c245b7a270d"},
		"env@4":          {1500, "a8e2c0e831b89525"},
		"example":        {26, "daa488d6c7528e1c"},
		// The banked points keep the base's release cost, as their labels say.
		"fenced-base":              {4, "e281a6a5acaa29ff"},
		"fenced-release":           {2, "684aa195551b6912"},
		"filter":                   {1, "f6a9551293f118a9"},
		"ftl":                      {14, "89923d6337a12e76"},
		"grid":                     {2, "f620b530fb282447"},
		"guided":                   {18, "be9d412ca308d55a"},
		"indivisible":              {1, "2100d745cdd2059b"},
		"labels":                   {8, "6e024afd94520c98"},
		"max-cost":                 {1, "f6a9551293f118a9"},
		"quality":                  {26, "daa488d6c7528e1c"},
		"random":                   {4, "adc2c8bdb07bd37d"},
		"retire-drop":              {2, "6114b5ace6ffce8b"},
		"rowhit-base":              {2, "cc14db3ced990e1f"},
		"served":                   {3168, "eab22d5c6c4df928"},
		"shape@0":                  {150, "17755bea2ded37f9"},
		"shape@1":                  {150, "e9dd64f056016625"},
		"shape@2":                  {150, "1502f99bfd69ccd0"},
		"shape@3":                  {150, "2920d0f6379a2285"},
		"shape@4":                  {150, "f50c477096c194e1"},
		"spaces/banked-smoke.json": {36, "28e2d240965c7c29"},
		"spaces/banked.json":       {140, "8029985a59ea25b9"},
		"spaces/ftl-smoke.json":    {14, "89923d6337a12e76"},
		"spaces/ftl.json":          {196, "a93f8ed6f5d5a234"},
		"spaces/paper.json":        {92, "4af5ea18a2f4c752"},
		"spaces/smoke.json":        {8, "b09a3b6d2b95972b"},
		"store-sharing":            {6, "10c1afce41bb2da9"},
		"wcache-pins":              {17, "ceae5c13ae38f410"},
		"wcache-pins-org":          {4, "ae32e3fd0849ad6c"},
	}
	spaces := goldenSpaces(t)
	var got []string
	for name, s := range spaces {
		cands, err := s.Enumerate()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w, ok := want[name]
		d := enumDigest(cands)
		got = append(got, fmt.Sprintf("%q: {%d, %q},", name, len(cands), d))
		if !ok {
			t.Errorf("%s: no golden entry", name)
			continue
		}
		if len(cands) != w.n || d != w.digest {
			t.Errorf("%s: %d candidates, digest %s; want %d, %s", name, len(cands), d, w.n, w.digest)
		}
	}
	if t.Failed() {
		sort.Strings(got)
		t.Log("enumerated:\n" + strings.Join(got, "\n"))
	}
}

// BenchmarkEnumerate times the paper grid's enumeration, the set-up a
// paper sweep pays before its first job.
func BenchmarkEnumerate(b *testing.B) {
	s, err := LoadFile("../../spaces/paper.json")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Enumerate(); err != nil {
			b.Fatal(err)
		}
	}
}
