package machconf

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/sim"
)

// This file is the one compact-spec vocabulary for the whole repository.
// Every path from a knob name to a machine comes through Apply: the spec
// strings of cmd/wbcompare, cmd/wbexp and wbsim -config (ParseSpec), the
// wbsim machine flags, the scalar fields of wbserve's POST /run, and the
// candidates explore.Space enumerates.  The spec vocabulary below and the
// canonical JSON form are the only two ways a machine is ever described
// from the outside.

// ParseSpec builds a machine from a compact comma-separated key=value
// string, starting from the paper's baseline.  A spec beginning with '@'
// instead starts from a canonical machconf JSON file — "@deep.json", or
// "@deep.json,hazard=flush-full" to override on top of it — so every
// spec-taking flag also accepts config blobs.
//
// Keys:
//
//	depth=N        write buffer depth (entries)
//	width=N        entry width in words (1 = non-coalescing)
//	org=K          buffer organization: fifo (default) | ftl
//	numbuffers=N   ftl: parallel address-striped buffers (implies org=ftl)
//	sectorbits=N   ftl: words per valid-tracking granule = 2^N (implies org=ftl)
//	retire=N       retire-at-N high-water mark
//	aging=N        aging timeout in cycles (0 = off)
//	hazard=P       flush-full | flush-partial | flush-item-only | read-from-WB
//	               (any policy registered with RegisterHazard)
//	backend=K      drain-side backend: flat (default) | banked | fenced
//	banks=N        banked: DRAM banks, power of two (implies backend=banked)
//	rowhit=N       banked: row-buffer-hit service cycles (implies backend=banked)
//	rowmiss=N      banked: row-buffer-miss service cycles (implies backend=banked)
//	fencecost=N    fenced: full-membar surcharge in cycles (implies a fenced
//	               wrap around the current backend)
//	releasecost=N  fenced: store-release surcharge in cycles (implies fenced)
//	wcache=N       use an N-entry write cache instead of a buffer
//	l1=BYTES       L1 size
//	l2lat=N        L2 latency (read and write)
//	l2=BYTES       finite L2 size (0 = perfect)
//	memlat=N       main-memory latency
//	threshold=N    UltraSPARC-style write-priority threshold
//	issue=W        superscalar issue width
//
// The returned configuration is fully validated.  Apply takes the same keys
// as separate settings.
func ParseSpec(spec string) (sim.Config, error) {
	return ParseSpecFrom(sim.Baseline(), spec)
}

// ParseSpecFrom is ParseSpec starting from an arbitrary base machine; keys
// not mentioned in the spec keep the base's values.  It is Apply over the
// spec's comma-separated settings followed by Validate.
func ParseSpecFrom(base sim.Config, spec string) (sim.Config, error) {
	if strings.HasPrefix(spec, "@") {
		path, rest, _ := strings.Cut(strings.TrimPrefix(spec, "@"), ",")
		loaded, err := LoadFile(path)
		if err != nil {
			return sim.Config{}, err
		}
		return ParseSpecFrom(loaded, rest)
	}
	if spec == "" {
		return base, Validate(base)
	}
	cfg, err := Apply(base, strings.Split(spec, ",")...)
	if err != nil {
		return cfg, err
	}
	return cfg, Validate(cfg)
}

// A Setting is one key=value pair of the spec vocabulary ("depth=12").  It
// is a plain string, so a split spec applies as it is.
type Setting = string

// Apply edits base by the settings, in order, and returns the machine
// without validating it; an unknown key, a malformed pair or an unparsable
// value is an error.  When the base uses a retire-at policy, retire=/aging=
// edit it in place; with any other policy they replace it by a fresh
// retire-at.
func Apply(base sim.Config, settings ...Setting) (sim.Config, error) {
	cfg := base
	retire, _ := cfg.Retire.(core.RetireAt)
	if retire.N == 0 {
		retire.N = 2
	}
	retireTouched := false
	// Like retire=/aging=, the ftl keys edit an existing ftl spec in place
	// and replace any other organization with a fresh one.  Custom
	// organizations travel as JSON blobs (@file), not spec keys.
	ftl, _ := cfg.Org.(core.FTLOrg)
	if ftl.NumBuffers == 0 {
		ftl.NumBuffers = 1
	}
	orgTouched := false
	// The backend keys likewise edit the base's backend in place: banks=/
	// rowhit=/rowmiss= imply banked, fencecost=/releasecost= imply a fenced
	// wrap around whatever the write path uses, and backend=flat clears
	// everything.  Custom backends travel as JSON blobs (@file), not keys.
	var banked backend.BankedSpec
	var fenced backend.FencedSpec
	bankedOn, fencedOn := false, false
	switch b := cfg.Backend.(type) {
	case backend.BankedSpec:
		banked, bankedOn = b, true
	case backend.FencedSpec:
		fenced, fencedOn = b, true
		if inner, ok := b.Inner.(backend.BankedSpec); ok {
			banked, bankedOn = inner, true
		}
	}
	backendTouched := false
	for _, kv := range settings {
		key, val, found := strings.Cut(kv, "=")
		if !found {
			return cfg, fmt.Errorf("machconf: malformed %q (want key=value)", kv)
		}
		if key == "hazard" {
			h, ok := HazardByName(val)
			if !ok {
				return cfg, fmt.Errorf("machconf: unknown hazard policy %q", val)
			}
			cfg = cfg.WithHazard(h)
			continue
		}
		if key == "org" {
			switch val {
			case "fifo":
				cfg = cfg.WithOrg(nil)
				orgTouched = false
			case "ftl":
				orgTouched = true
			default:
				return cfg, fmt.Errorf("machconf: unknown buffer organization %q (fifo or ftl)", val)
			}
			continue
		}
		if key == "backend" {
			switch val {
			case "flat":
				cfg = cfg.WithBackend(nil)
				banked, fenced = backend.BankedSpec{}, backend.FencedSpec{}
				bankedOn, fencedOn, backendTouched = false, false, false
			case "banked":
				bankedOn, backendTouched = true, true
			case "fenced":
				fencedOn, backendTouched = true, true
			default:
				return cfg, fmt.Errorf("machconf: unknown backend %q (flat, banked, or fenced)", val)
			}
			continue
		}
		num, err := strconv.Atoi(val)
		if err != nil {
			return cfg, fmt.Errorf("machconf: %s: %v", key, err)
		}
		switch key {
		case "depth":
			cfg = cfg.WithDepth(num)
		case "width":
			cfg.WB.WordsPerEntry = num
		case "numbuffers":
			ftl.NumBuffers = num
			orgTouched = true
		case "sectorbits":
			ftl.SectorBits = num
			orgTouched = true
		case "banks", "rowhit", "rowmiss", "fencecost", "releasecost":
			if num < 0 {
				return cfg, fmt.Errorf("machconf: %s=%d must not be negative", key, num)
			}
			switch key {
			case "banks":
				banked.Banks = num
				bankedOn = true
			case "rowhit":
				banked.RowHit = uint64(num)
				bankedOn = true
			case "rowmiss":
				banked.RowMiss = uint64(num)
				bankedOn = true
			case "fencecost":
				fenced.FullCost = uint64(num)
				fencedOn = true
			case "releasecost":
				fenced.ReleaseCost = uint64(num)
				fencedOn = true
			}
			backendTouched = true
		case "retire":
			retire.N = num
			retireTouched = true
		case "aging":
			retire.Timeout = uint64(num)
			retireTouched = true
		case "wcache":
			cfg = cfg.WithWriteCache(num)
		case "l1":
			cfg = cfg.WithL1Size(num)
		case "l2lat":
			cfg = cfg.WithL2Latency(uint64(num))
		case "l2":
			if num > 0 {
				cfg = cfg.WithL2(num)
			} else {
				cfg.L2 = nil
			}
		case "memlat":
			cfg = cfg.WithMemLat(uint64(num))
		case "threshold":
			cfg.WriteThreshold = num
		case "issue":
			cfg = cfg.WithIssueWidth(num)
		default:
			return cfg, fmt.Errorf("machconf: unknown key %q", key)
		}
	}
	if retireTouched {
		cfg = cfg.WithRetire(retire)
	}
	if orgTouched {
		cfg = cfg.WithOrg(ftl)
	}
	if backendTouched {
		var spec backend.Spec
		if bankedOn {
			spec = banked
		}
		if fencedOn {
			fenced.Inner = spec // nil inner means the fenced wrap times writes flat
			spec = fenced
		}
		cfg = cfg.WithBackend(spec)
	}
	return cfg, nil
}

// LoadFile reads, decodes, and validates a canonical machconf JSON file —
// the standard way a machine travels as an artifact (wbsim -dump-config
// writes one; wbsim/wbexp -config and wbopt space bases read them).
func LoadFile(path string) (sim.Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return sim.Config{}, err
	}
	cfg, err := Decode(data)
	if err != nil {
		return sim.Config{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := Validate(cfg); err != nil {
		return sim.Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}
