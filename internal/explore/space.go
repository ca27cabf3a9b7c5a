// Package explore searches the write-buffer design space the paper sweeps
// by hand: depth × retirement × aging × load-hazard policy × write cache ×
// cache/memory environment.  A Space enumerates the legal machconf
// configurations of that product, a Strategy decides which of them to
// simulate cycle-exactly within a budget, and a Frontier reduces the
// measurements to the Pareto-optimal set over (CPI overhead, area proxy) —
// the tradeoff curve the paper's Figures 4–8 trace pointwise.
//
// The subsystem layers on everything beneath it: candidates are identified
// by their canonical machconf hash, evaluation runs through
// experiment.RunMatrixCtx (so any dispatch backend — local, remote worker
// pools, the result store — works unchanged), the analytic Markov model
// (internal/analytic) is the cheap predictor that lets the guided strategy
// spend its simulation budget only on the predicted frontier, and progress
// and counters publish through internal/metrics.  cmd/wbopt is the CLI.
//
// See docs/EXPLORATION.md for space files, budget semantics, and the
// frontier format.
package explore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	backendpkg "repro/internal/backend"
	"repro/internal/core"
	"repro/internal/machconf"
	"repro/internal/sim"
)

// Space describes a design space as per-axis value lists over a base
// machine.  Empty axes keep the base's value.  Enumerate expands the
// Cartesian product, drops illegal or redundant points (see the constraint
// list on Enumerate), and yields each surviving machine exactly once in a
// deterministic order.
type Space struct {
	// Base is the machine every axis overrides; the zero value means
	// sim.Baseline().
	Base *sim.Config
	// Depths, Widths, Retires, Agings sweep the write buffer itself:
	// entries, words per entry, retire-at high-water mark, aging timeout.
	Depths  []int
	Widths  []int
	Retires []int
	Agings  []uint64
	// Orgs sweeps the buffer organization family ("fifo", "ftl"); NumBufs
	// and SectorBits sweep the ftl shape and are pinned to their first
	// value for non-ftl points.  Custom organization specs enter through
	// Base, not this axis.
	Orgs       []string
	NumBufs    []int
	SectorBits []int
	// Hazards sweeps the load-hazard policy.
	Hazards []core.HazardPolicy
	// WCaches sweeps Jouppi-style write caches; 0 keeps the plain buffer.
	WCaches []int
	// L1Sizes, L2Lats, L2Sizes, MemLats sweep the cache environment.
	// An L2 size of 0 is the paper's perfect L2.
	L1Sizes []int
	L2Lats  []uint64
	L2Sizes []int
	MemLats []uint64
	// Backends sweeps the memory-backend family ("flat", "banked"); Banks,
	// RowHits, and RowMisses sweep the banked shape and are pinned to
	// their first values for non-banked points.  Unlike the buffer-shape
	// axes, the backend is NOT pinned under a write cache: it times the
	// victim-buffer drains too.  Custom backend specs enter through Base.
	Backends  []string
	Banks     []int
	RowHits   []uint64
	RowMisses []uint64
	// FenceCosts sweeps the full-membar surcharge of a fenced wrap over
	// whichever backend a point runs; 0 means no wrap.  It is orthogonal
	// to the Backends axis, matching the fencecost spec key.
	FenceCosts []uint64
	// MaxCost, when > 0, drops candidates whose area proxy (CostProxy)
	// exceeds it — the designer's area budget as a constraint predicate.
	MaxCost int
	// Filter, when non-nil, is an arbitrary extra constraint; candidates
	// it rejects are dropped.  Only programmatic spaces can set it.
	Filter func(sim.Config) bool
}

// Candidate is one legal point of the space: a complete machine, its
// canonical machconf hash (the identity every layer below keys on), and a
// human-readable label built from the axes that vary.
type Candidate struct {
	Label string
	Hash  string
	Cfg   sim.Config
}

// spaceFile is the strict JSON form of a Space (docs/EXPLORATION.md).
// Hazards travel by registered name and the base machine as a ParseSpec
// string, so a space file composes with the rest of the config tooling.
type spaceFile struct {
	Base       string   `json:"base,omitempty"`
	Depths     []int    `json:"depths,omitempty"`
	Widths     []int    `json:"widths,omitempty"`
	Retires    []int    `json:"retires,omitempty"`
	Agings     []uint64 `json:"agings,omitempty"`
	Orgs       []string `json:"orgs,omitempty"`
	NumBufs    []int    `json:"numbuffers,omitempty"`
	SectorBits []int    `json:"sectorbits,omitempty"`
	Hazards    []string `json:"hazards,omitempty"`
	WCaches    []int    `json:"wcaches,omitempty"`
	L1Sizes    []int    `json:"l1_sizes,omitempty"`
	L2Lats     []uint64 `json:"l2_lats,omitempty"`
	L2Sizes    []int    `json:"l2_sizes,omitempty"`
	MemLats    []uint64 `json:"mem_lats,omitempty"`
	Backends   []string `json:"backends,omitempty"`
	Banks      []int    `json:"banks,omitempty"`
	RowHits    []uint64 `json:"rowhits,omitempty"`
	RowMisses  []uint64 `json:"rowmisses,omitempty"`
	FenceCosts []uint64 `json:"fence_costs,omitempty"`
	MaxCost    int      `json:"max_cost,omitempty"`
}

// Load parses a space file.  Unknown fields, trailing data, unknown hazard
// names, and unparsable base specs are errors.
func Load(data []byte) (*Space, error) {
	var f spaceFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("explore: trailing data after space")
	}
	s := &Space{
		Depths: f.Depths, Widths: f.Widths, Retires: f.Retires, Agings: f.Agings,
		Orgs: f.Orgs, NumBufs: f.NumBufs, SectorBits: f.SectorBits,
		WCaches: f.WCaches, L1Sizes: f.L1Sizes, L2Lats: f.L2Lats,
		L2Sizes: f.L2Sizes, MemLats: f.MemLats, MaxCost: f.MaxCost,
		Backends: f.Backends, Banks: f.Banks,
		RowHits: f.RowHits, RowMisses: f.RowMisses, FenceCosts: f.FenceCosts,
	}
	for _, org := range f.Orgs {
		if org != "fifo" && org != "ftl" {
			return nil, fmt.Errorf("explore: unknown buffer organization %q in orgs axis", org)
		}
	}
	for _, be := range f.Backends {
		if be != "flat" && be != "banked" {
			return nil, fmt.Errorf("explore: unknown memory backend %q in backends axis", be)
		}
	}
	if f.Base != "" {
		base, err := machconf.ParseSpec(f.Base)
		if err != nil {
			return nil, fmt.Errorf("explore: base: %w", err)
		}
		s.Base = &base
	}
	for _, name := range f.Hazards {
		h, ok := machconf.HazardByName(name)
		if !ok {
			// Space files are hand-written; forgive the case (the
			// canonical name "read-from-WB" is easy to miscapitalise).
			for _, p := range core.HazardPolicies {
				if strings.EqualFold(p.String(), name) {
					h, ok = p, true
					break
				}
			}
		}
		if !ok {
			return nil, fmt.Errorf("explore: unknown hazard policy %q", name)
		}
		s.Hazards = append(s.Hazards, h)
	}
	return s, nil
}

// LoadFile is Load over a file.
func LoadFile(path string) (*Space, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Load(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return s, nil
}

// Default returns the paper's own design space: the depth and high-water
// sweep of Figures 4–7 crossed with all four load-hazard policies, on the
// baseline cache environment.  It is what cmd/wbopt searches when no space
// file is given.
func Default() *Space {
	return &Space{
		Depths:  []int{1, 2, 4, 8, 12, 16},
		Retires: []int{1, 2, 4, 6, 8, 12},
		Hazards: append([]core.HazardPolicy(nil), core.HazardPolicies...),
	}
}

// CostProxy returns a configuration's area proxy in word-slots of storage:
// depth × entry width for a write buffer, doubled for a write cache (its
// fully associative CAM match and victim-buffer path cost roughly a second
// buffer's worth of area per entry).  The ftl organization adjusts the
// buffer figure in both directions: each extra buffer adds one word-slot
// of head/count control, and coarse sector granules shrink every entry's
// valid mask from WordsPerEntry bits to WordsPerEntry>>SectorBits bits,
// crediting the saved mask SRAM at 64 bits per word-slot — which is what
// sectorbits buys, since its timing effect is purely conservative.  The
// degenerate ftl{1,0} shape costs exactly what the fifo does.  The Pareto
// frontier minimises this against CPI overhead; it is a proxy, not a
// layout model.
func CostProxy(cfg sim.Config) int {
	var cost int
	if cfg.WriteCacheDepth > 0 {
		cost = 2 * cfg.WriteCacheDepth * cfg.WB.Geometry.WordsPerLine()
	} else {
		cost = cfg.WB.Depth * cfg.WB.WordsPerEntry
		if f, ok := cfg.Org.(core.FTLOrg); ok {
			maskBits := cfg.WB.WordsPerEntry
			if f.SectorBits > 0 {
				maskBits = cfg.WB.WordsPerEntry >> f.SectorBits
				if maskBits < 1 {
					maskBits = 1
				}
			}
			cost += f.NumBuffers - 1
			cost -= cfg.WB.Depth * (cfg.WB.WordsPerEntry - maskBits) / 64
		}
	}
	// A banked backend adds one word-slot of drain-engine control per extra
	// bank (busy-until timer plus open-row tag), whichever buffer fronts it
	// — a write cache drains through the same banks, so the term applies
	// there too.  The degenerate single bank costs exactly what flat does,
	// and a fenced wrap is pure policy: zero area.
	be := cfg.Backend
	if f, ok := be.(backendpkg.FencedSpec); ok {
		be = f.Inner
	}
	if b, ok := be.(backendpkg.BankedSpec); ok && b.Banks > 1 {
		cost += b.Banks - 1
	}
	return cost
}

// base returns the machine the axes override.
func (s *Space) base() sim.Config {
	if s.Base != nil {
		return *s.Base
	}
	return sim.Baseline()
}

// The axes of a space, in enumeration order (the last varies fastest),
// each named by its machconf spec key in axisKeys.
const (
	axDepth = iota
	axWidth
	axOrg
	axNumBufs
	axSectorBits
	axRetire
	axAging
	axHazard // depth through hazard are the buffer keys a write cache pins
	axWCache
	axL1
	axL2Lat
	axL2
	axMemLat
	axBackend // backend through fencecost compose into one backend
	axBanks
	axRowHit
	axRowMiss
	axFenceCost
	numAxes
)

var axisKeys = [numAxes]string{"depth", "width", "org", "numbuffers", "sectorbits",
	"retire", "aging", "hazard", "wcache", "l1", "l2lat", "l2", "memlat",
	"backend", "banks", "rowhit", "rowmiss", "fencecost"}

// labelOrder is the order in which a label names the axes: enumeration
// order with the width moved behind the write cache.
var labelOrder = [numAxes]int{axDepth, axOrg, axNumBufs, axSectorBits, axRetire,
	axAging, axHazard, axWCache, axWidth, axL1, axL2Lat, axL2, axMemLat,
	axBackend, axBanks, axRowHit, axRowMiss, axFenceCost}

// axes returns every axis's values as machconf settings.  An empty axis is
// the singleton holding the base's value; the empty setting keeps a custom
// base organization or backend, or a backend no axis sweeps, as it is.
func (s *Space) axes(base sim.Config) [numAxes][]machconf.Setting {
	retire, _ := base.Retire.(core.RetireAt)
	if retire.N == 0 {
		retire.N = 2
	}
	ftl, isFTL := base.Org.(core.FTLOrg)
	org := ""
	switch {
	case base.Org == nil:
		org = "fifo"
	case isFTL:
		org = "ftl"
	}
	if !isFTL {
		ftl = core.FTLOrg{NumBuffers: 1}
	}
	inner := base.Backend
	fenced, isFenced := inner.(backendpkg.FencedSpec)
	if isFenced {
		inner = fenced.Inner
	}
	banked, isBanked := inner.(backendpkg.BankedSpec)
	be := ""
	switch {
	case len(s.Backends)+len(s.Banks)+len(s.RowHits)+len(s.RowMisses)+len(s.FenceCosts) == 0:
		// No backend axis is swept: keep the base's backend whole, so a
		// fenced base keeps its release cost, which no axis names.
	case inner == nil:
		be = "flat"
	case isBanked:
		be = "banked"
	}
	if !isBanked {
		banked = backendpkg.BankedSpec{Banks: 1}
	}
	l2 := 0
	if base.L2 != nil {
		l2 = base.L2.SizeBytes
	}
	return [numAxes][]machconf.Setting{
		axis(axDepth, s.Depths, base.WB.Depth),
		axis(axWidth, s.Widths, base.WB.WordsPerEntry),
		axis(axOrg, s.Orgs, org),
		axis(axNumBufs, s.NumBufs, ftl.NumBuffers),
		axis(axSectorBits, s.SectorBits, ftl.SectorBits),
		axis(axRetire, s.Retires, retire.N),
		axis(axAging, s.Agings, retire.Timeout),
		axis(axHazard, s.Hazards, base.Hazard),
		axis(axWCache, s.WCaches, base.WriteCacheDepth),
		axis(axL1, s.L1Sizes, base.L1.SizeBytes),
		axis(axL2Lat, s.L2Lats, base.L2WriteLat),
		axis(axL2, s.L2Sizes, l2),
		axis(axMemLat, s.MemLats, base.MemLat),
		axis(axBackend, s.Backends, be),
		axis(axBanks, s.Banks, banked.Banks),
		axis(axRowHit, s.RowHits, banked.RowHit),
		axis(axRowMiss, s.RowMisses, banked.RowMiss),
		axis(axFenceCost, s.FenceCosts, fenced.FullCost),
	}
}

// axis renders one axis's values (or, for an empty axis, the base's) as
// settings of its key; an empty value renders as the empty setting.
func axis[T any](i int, vals []T, base T) []machconf.Setting {
	if len(vals) == 0 {
		vals = []T{base}
	}
	out := make([]machconf.Setting, len(vals))
	for j, v := range vals {
		if val := fmt.Sprint(v); val != "" {
			out[j] = axisKeys[i] + "=" + val
		}
	}
	return out
}

// Enumerate expands the space into its legal, deduplicated candidate list.
// One odometer walks the axes in the order depth, width, org, numbuffers,
// sectorbits, retire, aging, hazard, wcache, l1, l2lat, l2, memlat,
// backend, banks, rowhit, rowmiss, fencecost (the last fastest), and every
// candidate's machine is machconf.Apply of its axes' settings over the
// base.  Its label is the settings of the axes that vary, so it parses
// (machconf.ParseSpecFrom over the base) back to the candidate's machine —
// except under a write cache, whose pinned policy no spec key names.
//
// Constraints applied, in the spirit of the paper's own pruning (see
// constrain):
//
//   - a retire-at mark above the depth is meaningless (skipped);
//   - a write-cache point ignores the buffer-shape and policy axes (the
//     write cache reads its own entries and retires via its victim
//     buffer), so depth/width/org/numbuffers/sectorbits/retire/aging/
//     hazard are pinned to their first values for wcache > 0, and the
//     machine's retirement, hazard policy and organization to eager,
//     flush-full and the fifo (sim ignores them there; pinning keeps equal
//     machines hash-equal);
//   - numbuffers and sectorbits apply only to the ftl organization, and
//     banks, rowhit and rowmiss only to the banked backend; elsewhere they
//     are pinned to their first values and left out;
//   - the memory latency is pinned to the base's for a perfect L2 (it is
//     unreachable without one);
//   - a custom base organization or backend is kept whole, and so is any
//     base backend when the space sweeps no backend axis;
//   - MaxCost and Filter drop what they reject;
//   - machines failing sim validation are skipped — this is what drops
//     ftl shapes whose buffer count does not divide the depth;
//   - any remaining duplicates are removed by canonical machconf hash.
func (s *Space) Enumerate() ([]Candidate, error) {
	base := s.base()
	axes := s.axes(base)
	var vary [numAxes]bool
	for i, vals := range axes {
		vary[i] = len(vals) > 1
	}
	// The backend keys compose (banks= implies backend=banked, and a zero
	// fencecost cannot be written), so a label names the whole backend
	// whenever any of its axes varies.
	if slices.Contains(vary[axBackend:], true) {
		for i := axBackend; i < numAxes; i++ {
			vary[i] = true
		}
	}
	var baseAt [numAxes]machconf.Setting // each axis's setting in the base
	for i, vals := range (&Space{}).axes(base) {
		baseAt[i] = vals[0]
	}
	baseMemLat := baseAt[axMemLat]

	var out []Candidate
	seen := map[string]bool{}
	var idx [numAxes]int
	var at [numAxes]machconf.Setting
	settings := make([]machconf.Setting, 0, numAxes)
	for more := true; more; more = next(&idx, &axes) {
		for i := range at {
			at[i] = axes[i][idx[i]]
		}
		if !constrain(&at, &idx, baseMemLat) {
			continue
		}
		settings = settings[:0]
		for _, set := range at {
			if set != "" {
				settings = append(settings, set)
			}
		}
		cfg, err := machconf.Apply(base, settings...)
		if err != nil {
			return nil, fmt.Errorf("explore: %w", err)
		}
		wcache := cfg.WriteCacheDepth > 0
		if wcache {
			// The one edit no spec key names: pin what the simulator
			// ignores under a write cache.
			cfg = cfg.WithRetire(core.Eager{}).WithHazard(core.FlushFull).WithOrg(nil)
		} else if r, ok := cfg.Retire.(core.RetireAt); ok && r.N > cfg.WB.Depth {
			continue
		}
		if s.MaxCost > 0 && CostProxy(cfg) > s.MaxCost {
			continue
		}
		if s.Filter != nil && !s.Filter(cfg) {
			continue
		}
		if cfg.Validate() != nil {
			continue
		}
		hash, err := machconf.Hash(cfg)
		if err != nil {
			return nil, fmt.Errorf("explore: %w", err)
		}
		if seen[hash] {
			continue
		}
		seen[hash] = true
		out = append(out, Candidate{Label: label(&at, &vary, &baseAt, wcache), Hash: hash, Cfg: cfg})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("explore: space contains no legal configuration")
	}
	return out, nil
}

// next advances idx to the following point of the axes' product, the last
// axis fastest, and reports false once every point has been visited.
func next(idx *[numAxes]int, axes *[numAxes][]machconf.Setting) bool {
	for i := numAxes - 1; i >= 0; i-- {
		if idx[i]++; idx[i] < len(axes[i]) {
			return true
		}
		idx[i] = 0
	}
	return false
}

// constrain is the space's one applicability predicate.  It empties the
// settings of the point at (whose value indexes are idx) that do not apply
// to it, and reports false for a point that varies an axis the point pins
// to its first value, so pinned axes cannot mint copies of one machine.
func constrain(at *[numAxes]machconf.Setting, idx *[numAxes]int, baseMemLat machconf.Setting) bool {
	pinned := func(from, to int) bool {
		for i := from; i <= to; i++ {
			if idx[i] > 0 {
				return true
			}
		}
		return false
	}
	drop := func(from, to int) bool {
		for i := from; i <= to; i++ {
			at[i] = ""
		}
		return !pinned(from, to)
	}
	ok := true
	if at[axWCache] != "wcache=0" {
		ok = !pinned(axDepth, axHazard)
	}
	if at[axOrg] != "org=ftl" {
		ok = drop(axNumBufs, axSectorBits) && ok
	}
	if at[axBackend] != "backend=banked" {
		ok = drop(axBanks, axRowMiss) && ok
	}
	if at[axBackend] == "" {
		ok = drop(axFenceCost, axFenceCost) && ok
	}
	if at[axFenceCost] == "fencecost=0" {
		at[axFenceCost] = "" // a fencecost key always wraps the backend
	}
	if at[axL2] == "l2=0" {
		ok = ok && !pinned(axMemLat, axMemLat)
		at[axMemLat] = baseMemLat
	}
	return ok
}

// label renders a candidate as the compact spec of its varying axes, in
// labelOrder, so a reported configuration can be fed straight back to
// wbsim/wbcompare.  A write-cache label names no buffer key but the width,
// which sets the write cache's entry width too; a zero rowhit or rowmiss
// goes unnamed where the base's (at base) is zero too, since the label
// parses over the base.
func label(at *[numAxes]machconf.Setting, vary *[numAxes]bool, base *[numAxes]machconf.Setting, wcache bool) string {
	var parts []string
	for _, i := range labelOrder {
		switch {
		case !vary[i] || at[i] == "":
		case wcache && i <= axHazard && i != axWidth:
		case (at[i] == "rowhit=0" || at[i] == "rowmiss=0") && at[i] == base[i]:
		default:
			parts = append(parts, at[i])
		}
	}
	if len(parts) == 0 {
		return "base"
	}
	return strings.Join(parts, ",")
}
