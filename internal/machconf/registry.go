package machconf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/backend"
	"repro/internal/core"
)

// Policy is the wire form of a pluggable policy: a registered kind string
// plus that kind's parameter payload.  The payload is produced by the
// kind's codec, so the schema stays open — new policy families add a codec,
// not a wire field.
type Policy struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params,omitempty"`
}

// Codec makes one policy family wire-encodable.  Encode claims a value of
// the family (returning its parameter payload and true) or declines it;
// Decode rebuilds the value from the payload.  Both directions must be
// deterministic and mutually inverse — the canonical hash and the result
// store depend on it.  Decode may return a nil value: that is how the
// "fifo" organization and "flat" backend kinds map an explicitly-written
// block back to the canonical omitted form.  A codec may recurse through
// the family's Encode/Decode functions for nested values (the fenced
// backend does); the registry lock is released before any codec runs, so
// the recursion is safe.
type Codec[T any] struct {
	// Kind is the family's wire identifier ("retire-at", "ftl",
	// "banked", …).
	Kind string
	// Encode returns the parameter payload for a value of this family, or
	// ok=false when the value belongs to a different family.  A nil
	// payload encodes a parameterless kind.
	Encode func(v T) (params any, ok bool)
	// Decode rebuilds the value from its payload; raw is nil when the wire
	// form carried no params.
	Decode func(raw json.RawMessage) (T, error)
}

// RetirementCodec, OrgCodec and BackendCodec are the codecs of the three
// pluggable families: retirement policies, write-buffer organizations and
// drain-side backends.
type (
	RetirementCodec = Codec[core.RetirementPolicy]
	OrgCodec        = Codec[core.OrgSpec]
	BackendCodec    = Codec[backend.Spec]
)

// family is one codec registry: its codecs in registration order (encode
// tries them in turn), its kind index, the noun its errors use, and the
// Register function that extends it.
type family[T any] struct {
	noun, register string
	name           func(T) string
	codecs         []Codec[T]
	kinds          map[string]int // kind -> index into codecs
}

var (
	regMu       sync.RWMutex
	hazardKinds = map[string]core.HazardPolicy{}
	retirements = &family[core.RetirementPolicy]{noun: "retirement policy",
		register: "RegisterRetirement", name: core.RetirementPolicy.Name, kinds: map[string]int{}}
	orgs = &family[core.OrgSpec]{noun: "buffer organization",
		register: "RegisterOrg", name: core.OrgSpec.OrgName, kinds: map[string]int{}}
	backends = &family[backend.Spec]{noun: "backend",
		register: "RegisterBackend", name: backend.Spec.BackendName, kinds: map[string]int{}}
)

// add registers a codec.  It panics on a duplicate or incomplete codec,
// since that is a programming error, not an input error.
func (f *family[T]) add(c Codec[T]) {
	if c.Kind == "" || c.Encode == nil || c.Decode == nil {
		panic("machconf: " + f.register + " needs a kind, an Encode, and a Decode")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := f.kinds[c.Kind]; dup {
		panic(fmt.Sprintf("machconf: duplicate %s kind %q", f.noun, c.Kind))
	}
	f.kinds[c.Kind] = len(f.codecs)
	f.codecs = append(f.codecs, c)
}

// encode renders v in the wire form of the first codec that claims it.  A
// nil value (the implicit default) is never encoded, and a value no codec
// claims cannot travel; the error says how to fix that.
func (f *family[T]) encode(v T) (Policy, error) {
	if any(v) == nil {
		return Policy{}, fmt.Errorf("machconf: no %s to encode", f.noun)
	}
	regMu.RLock()
	codecs := f.codecs
	regMu.RUnlock()
	for _, c := range codecs {
		params, ok := c.Encode(v)
		if !ok {
			continue
		}
		var raw json.RawMessage
		if params != nil {
			b, err := json.Marshal(params)
			if err != nil {
				return Policy{}, fmt.Errorf("machconf: encoding %q params: %w", c.Kind, err)
			}
			raw = b
		}
		return Policy{Kind: c.Kind, Params: raw}, nil
	}
	return Policy{}, fmt.Errorf("machconf: %s %q has no registered codec; "+
		"call machconf.%s to make it wire-encodable", f.noun, f.name(v), f.register)
}

// decode rebuilds a value from its wire form through its kind's codec.
func (f *family[T]) decode(w Policy) (T, error) {
	regMu.RLock()
	idx, ok := f.kinds[w.Kind]
	var c Codec[T]
	if ok {
		c = f.codecs[idx]
	}
	regMu.RUnlock()
	var zero T
	if !ok {
		return zero, fmt.Errorf("machconf: unknown %s kind %q", f.noun, w.Kind)
	}
	v, err := c.Decode(w.Params)
	if err != nil {
		return zero, fmt.Errorf("machconf: decoding %q params: %w", w.Kind, err)
	}
	return v, nil
}

// RegisterRetirement adds a retirement-policy family to the wire schema.
// Registration is typically done from an init function (the built-in
// families) or at program start-up (examples/custompolicy); once a kind is
// registered the policy travels through every consumer of this package —
// the result store, remote workers, wbserve — with no further changes.  It
// panics on a duplicate or incomplete codec.
func RegisterRetirement(c RetirementCodec) { retirements.add(c) }

// EncodeRetirement renders a retirement policy in its registered wire
// form.
func EncodeRetirement(p core.RetirementPolicy) (Policy, error) { return retirements.encode(p) }

// DecodeRetirement rebuilds a retirement policy from its wire form.
func DecodeRetirement(w Policy) (core.RetirementPolicy, error) { return retirements.decode(w) }

// RegisterOrg adds a write-buffer-organization family to the wire schema,
// with RegisterRetirement's contract.
func RegisterOrg(c OrgCodec) { orgs.add(c) }

// EncodeOrg renders a buffer-organization spec in its registered wire
// form.  The implicit FIFO is never encoded (a nil spec is the caller's
// signal to omit the buffer block), so a nil spec here is an error.
func EncodeOrg(o core.OrgSpec) (Policy, error) { return orgs.encode(o) }

// DecodeOrg rebuilds a buffer-organization spec from its wire form.  A
// nil result is valid: it means the block named the implicit FIFO.
func DecodeOrg(w Policy) (core.OrgSpec, error) { return orgs.decode(w) }

// RegisterBackend adds a drain-side-backend family to the wire schema,
// with RegisterRetirement's contract.
func RegisterBackend(c BackendCodec) { backends.add(c) }

// EncodeBackend renders a drain-side backend spec in its registered wire
// form.  The implicit flat backend is never encoded (a nil spec is the
// caller's signal to omit the backend block), so a nil spec here is an
// error.
func EncodeBackend(b backend.Spec) (Policy, error) { return backends.encode(b) }

// DecodeBackend rebuilds a drain-side backend spec from its wire form.  A
// nil result is valid: it means the block named the implicit flat backend.
func DecodeBackend(w Policy) (backend.Spec, error) { return backends.decode(w) }

// RegisterHazard adds a named load-hazard policy to the wire schema.  The
// four paper policies are pre-registered under their core names.
func RegisterHazard(name string, p core.HazardPolicy) {
	if name == "" {
		panic("machconf: RegisterHazard needs a name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := hazardKinds[name]; dup {
		panic(fmt.Sprintf("machconf: duplicate hazard policy %q", name))
	}
	hazardKinds[name] = p
}

// HazardByName resolves a registered hazard-policy name.
func HazardByName(name string) (core.HazardPolicy, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := hazardKinds[name]
	return p, ok
}

// decodeParams strictly unmarshals a params payload into dst; a nil or
// empty payload leaves dst at its zero value.
func decodeParams(raw json.RawMessage, dst any) error {
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// ─── built-in policy families ────────────────────────────────────────────

type retireAtParams struct {
	N       int    `json:"n,omitempty"`
	Timeout uint64 `json:"timeout,omitempty"`
}

type fixedRateParams struct {
	Interval uint64 `json:"interval,omitempty"`
}

func init() {
	RegisterRetirement(RetirementCodec{
		Kind: "retire-at",
		Encode: func(p core.RetirementPolicy) (any, bool) {
			r, ok := p.(core.RetireAt)
			if !ok {
				return nil, false
			}
			return retireAtParams{N: r.N, Timeout: r.Timeout}, true
		},
		Decode: func(raw json.RawMessage) (core.RetirementPolicy, error) {
			var p retireAtParams
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			return core.RetireAt{N: p.N, Timeout: p.Timeout}, nil
		},
	})
	RegisterRetirement(RetirementCodec{
		Kind: "fixed-rate",
		Encode: func(p core.RetirementPolicy) (any, bool) {
			r, ok := p.(core.FixedRate)
			if !ok {
				return nil, false
			}
			return fixedRateParams{Interval: r.Interval}, true
		},
		Decode: func(raw json.RawMessage) (core.RetirementPolicy, error) {
			var p fixedRateParams
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			return core.FixedRate{Interval: p.Interval}, nil
		},
	})
	RegisterRetirement(RetirementCodec{
		Kind: "eager",
		Encode: func(p core.RetirementPolicy) (any, bool) {
			_, ok := p.(core.Eager)
			return nil, ok
		},
		Decode: func(raw json.RawMessage) (core.RetirementPolicy, error) {
			var p struct{}
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			return core.Eager{}, nil
		},
	})
	for _, h := range core.HazardPolicies {
		RegisterHazard(h.String(), h)
	}
	// The built-in organization families.  "fifo" is decode-only: the
	// default organization is a nil spec that is never encoded, so an
	// explicitly-written fifo block converges to the omitted form (and the
	// pre-buffer-block hash) on its first round trip.
	RegisterOrg(OrgCodec{
		Kind:   "fifo",
		Encode: func(core.OrgSpec) (any, bool) { return nil, false },
		Decode: func(raw json.RawMessage) (core.OrgSpec, error) {
			var p struct{}
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			return nil, nil
		},
	})
	RegisterOrg(OrgCodec{
		Kind: "ftl",
		Encode: func(o core.OrgSpec) (any, bool) {
			f, ok := o.(core.FTLOrg)
			if !ok {
				return nil, false
			}
			return ftlOrgParams{NumBuffers: f.NumBuffers, SectorBits: f.SectorBits}, true
		},
		Decode: func(raw json.RawMessage) (core.OrgSpec, error) {
			var p ftlOrgParams
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			return core.FTLOrg{NumBuffers: p.NumBuffers, SectorBits: p.SectorBits}, nil
		},
	})
	// The built-in backend families.  "flat" is decode-only for the same
	// reason "fifo" is: the default backend is a nil spec that is never
	// encoded, so an explicitly-written flat block converges to the
	// omitted form (and the pre-backend-block hash) on its first round
	// trip.
	RegisterBackend(BackendCodec{
		Kind:   "flat",
		Encode: func(backend.Spec) (any, bool) { return nil, false },
		Decode: func(raw json.RawMessage) (backend.Spec, error) {
			var p struct{}
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			return nil, nil
		},
	})
	RegisterBackend(BackendCodec{
		Kind: "banked",
		Encode: func(b backend.Spec) (any, bool) {
			s, ok := b.(backend.BankedSpec)
			if !ok {
				return nil, false
			}
			return bankedParams{Banks: s.Banks, RowHit: s.RowHit,
				RowMiss: s.RowMiss, RowLines: s.RowLines}, true
		},
		Decode: func(raw json.RawMessage) (backend.Spec, error) {
			var p bankedParams
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			return backend.BankedSpec{Banks: p.Banks, RowHit: p.RowHit,
				RowMiss: p.RowMiss, RowLines: p.RowLines}, nil
		},
	})
	// "fenced" nests its inner backend as another Policy; the recursion
	// through EncodeBackend/DecodeBackend is safe because the registry
	// lock is released before any codec runs.  A nil inner (flat) is
	// omitted from the params.
	RegisterBackend(BackendCodec{
		Kind: "fenced",
		Encode: func(b backend.Spec) (any, bool) {
			s, ok := b.(backend.FencedSpec)
			if !ok {
				return nil, false
			}
			p := fencedParams{ReleaseCost: s.ReleaseCost, FullCost: s.FullCost}
			if s.Inner != nil {
				inner, err := EncodeBackend(s.Inner)
				if err != nil {
					return nil, false
				}
				p.Inner = &inner
			}
			return p, true
		},
		Decode: func(raw json.RawMessage) (backend.Spec, error) {
			var p fencedParams
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			s := backend.FencedSpec{ReleaseCost: p.ReleaseCost, FullCost: p.FullCost}
			if p.Inner != nil {
				inner, err := DecodeBackend(*p.Inner)
				if err != nil {
					return nil, err
				}
				s.Inner = inner
			}
			return s, nil
		},
	})
}

type ftlOrgParams struct {
	NumBuffers int `json:"numbuffers,omitempty"`
	SectorBits int `json:"sectorbits,omitempty"`
}

type bankedParams struct {
	Banks    int    `json:"banks,omitempty"`
	RowHit   uint64 `json:"rowhit,omitempty"`
	RowMiss  uint64 `json:"rowmiss,omitempty"`
	RowLines int    `json:"rowlines,omitempty"`
}

type fencedParams struct {
	Inner       *Policy `json:"inner,omitempty"`
	ReleaseCost uint64  `json:"releasecost,omitempty"`
	FullCost    uint64  `json:"fullcost,omitempty"`
}
