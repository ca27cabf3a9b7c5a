package workload

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/trace"
)

// The synthetic address space is laid out the way a real program's is:
// one compact block holding the hot working set, the warm region, the
// sequential store region, and finally the far region, consecutively.
// Compactness is what gives Table 7 its cliffs — a program whose total
// footprint fits an L2 size stops missing there.  A seed-derived jitter
// shifts the whole block so different benchmarks don't share set mappings.
const synthBase mem.Addr = 0x1000_0000

// regionOffset derives a line-aligned jitter below 1 MiB from the seed,
// imitating the arbitrary placement real loaders give a process image.
func regionOffset(seed uint64) mem.Addr {
	h := (seed*2654435761 + 0x9E3779B9) * 0x2545F4914F6CDD1D
	return mem.Addr(h%(1<<20)) &^ (lineBytes - 1)
}

const lineBytes = mem.LineBytes

// Profile parameterises the synthetic generator.  The knobs map one-to-one
// onto the program properties the paper identifies as driving write-buffer
// behaviour.
type Profile struct {
	// Seed makes the stream deterministic and distinct per benchmark.
	Seed uint64

	// PctLoad and PctStore set the dynamic instruction mix (Table 4);
	// the rest are non-memory instructions.
	PctLoad, PctStore float64

	// ExecRun, LoadRun and StoreBurst are mean block lengths: references
	// are emitted in geometrically distributed runs of a single kind,
	// which is what creates store bursts (buffer-full pressure) and load
	// clusters (L2 contention).
	ExecRun, LoadRun, StoreBurst float64

	// LoadHot is the fraction of loads directed at the hot region, which
	// stays L1-resident; it is the main L1-hit-rate control (Table 5).
	LoadHot float64
	// LoadRecent is the fraction of loads that read a recently stored
	// line — the producer-consumer traffic that causes load hazards.
	LoadRecent float64
	// HotLines sizes the hot region (must fit the 256-line L1).
	HotLines int
	// WarmLines sizes the warm region; cold loads usually go here.
	// It misses L1 but fits modest L2s, shaping Table 7's 128 K column.
	WarmLines int
	// FarLines sizes the far region; FarFrac of cold loads go there.
	// Random access over a far region larger than an L2 yields an L2 hit
	// fraction proportional to the fitting share, shaping the 512 K / 1 M
	// columns of Table 7.
	FarLines int
	// FarFrac is the fraction of cold loads that go far.
	FarFrac float64

	// StoreSeq is the probability a store continues the sequential write
	// cursor (coalescing traffic — the WB-hit-rate control); the rest
	// scatter over the warm region, since real programs mostly update the
	// data structures they read (keeping the L2 working set shared
	// between loads and stores, which Table 7 depends on).
	StoreSeq float64
	// StoreLines bounds the scattered-store span within the warm region.
	StoreLines int
	// SeqRegionLines bounds the sequential store cursor (it wraps).
	SeqRegionLines int
}

// Validate checks a profile for the mistakes that would silently
// mis-calibrate a benchmark: fractions outside [0,1], a hot set that
// cannot stay L1-resident, empty regions, or an instruction mix that does
// not leave room for compute.
func (p Profile) Validate() error {
	if p.PctLoad < 0 || p.PctStore < 0 || p.PctLoad+p.PctStore >= 100 {
		return fmt.Errorf("workload: instruction mix %.1f%%+%.1f%% leaves no compute", p.PctLoad, p.PctStore)
	}
	if p.ExecRun < 1 || p.LoadRun < 1 || p.StoreBurst < 1 {
		return fmt.Errorf("workload: block lengths must be >= 1")
	}
	for name, f := range map[string]float64{
		"LoadHot": p.LoadHot, "LoadRecent": p.LoadRecent,
		"FarFrac": p.FarFrac, "StoreSeq": p.StoreSeq,
	} {
		if f < 0 || f > 1 {
			return fmt.Errorf("workload: %s = %v outside [0,1]", name, f)
		}
	}
	if p.LoadHot+p.LoadRecent > 1 {
		return fmt.Errorf("workload: LoadHot+LoadRecent = %v exceeds 1", p.LoadHot+p.LoadRecent)
	}
	if p.HotLines < 1 || p.HotLines > 256 {
		return fmt.Errorf("workload: hot set of %d lines cannot stay resident in a 256-line L1", p.HotLines)
	}
	if p.WarmLines < 1 || p.FarLines < 1 || p.StoreLines < 1 || p.SeqRegionLines < 1 {
		return fmt.Errorf("workload: all regions need at least one line")
	}
	return nil
}

// synthGen is the deterministic generator state machine.
type synthGen struct {
	p Profile
	r *rng.RNG

	left uint64 // remaining instructions to emit

	mode    trace.Kind
	runLeft int
	qLoad   float64 // block-type probabilities
	qStore  float64
	farCut  float64 // qHot + FarFrac·(1-qHot): cold loads with u below it go far
	qHot    float64 // LoadRecent + LoadHot, the cold-load boundary

	// One-draw-per-sample run-length samplers (rng.Geo), built once per
	// stream for the profile's three fixed means.
	geoLoad, geoStore, geoExec *rng.Geo

	hot, warm, far, seq mem.Addr // skewed region bases

	// Initialisation sweep state: real programs write their data before
	// computing on it, so the stream opens by storing one word per line
	// of each region (bounded by initBudget so short streams are not all
	// sweep).  The sweep falls inside the experiment warm-up window and
	// removes the cold-miss tail that full SPEC executions never see.
	initPhase  int
	initIdx    int
	initBudget uint64

	seqCursor mem.Addr
	recent    [8]mem.Addr // ring of recently stored line bases
	recentLen int
	recentPos int
}

// newSynth builds a generator of exactly n instructions from the profile.
func newSynth(p Profile, n uint64) trace.Generator {
	s := &synthGen{p: p, r: rng.New(p.Seed), left: n}
	const gap = 4 * lineBytes
	s.hot = synthBase + regionOffset(p.Seed)
	s.warm = s.hot + mem.Addr(p.HotLines)*lineBytes + gap
	s.seq = s.warm + mem.Addr(p.WarmLines)*lineBytes + gap
	s.far = s.seq + mem.Addr(p.SeqRegionLines)*lineBytes + gap
	s.seqCursor = s.seq
	s.initBudget = n / 6
	// Convert the target instruction mix into block-type probabilities:
	// a block of kind k has mean length L_k, so picking kinds with
	// probability proportional to pct_k / L_k yields the target mix.
	wl := p.PctLoad / p.LoadRun
	ws := p.PctStore / p.StoreBurst
	we := (100 - p.PctLoad - p.PctStore) / p.ExecRun
	total := wl + ws + we
	s.qLoad = wl / total
	s.qStore = ws / total
	s.qHot = p.LoadRecent + p.LoadHot
	s.farCut = s.qHot + p.FarFrac*(1-s.qHot)
	s.geoLoad = rng.NewGeo(p.LoadRun)
	s.geoStore = rng.NewGeo(p.StoreBurst)
	s.geoExec = rng.NewGeo(p.ExecRun)
	return s
}

// Fill implements trace.Generator, emitting whole runs with straight-line
// code and every Exec run as a single run-length-encoded ref
// (trace.ExecRun).  The RNG is consulted once per block for the kind and
// length and once per load/store for the address, so the sequence does not
// depend on how the caller sizes its batches.
func (s *synthGen) Fill(buf []trace.Ref) int {
	n := 0
	// The initialisation sweep draws no randomness; once initPhase reaches
	// its terminal state it is never re-entered, so steady-state batches
	// skip this loop entirely.
	for s.initPhase < 4 {
		if n == len(buf) || s.left == 0 {
			return n
		}
		r, ok := s.initNext()
		if !ok {
			break
		}
		s.left--
		buf[n] = r
		n++
	}
	for n < len(buf) && s.left > 0 {
		if s.runLeft == 0 {
			s.pickBlock()
		}
		k := s.runLeft
		if s.left < uint64(k) {
			k = int(s.left)
		}
		if s.mode == trace.Exec {
			buf[n] = trace.ExecRun(uint64(k))
			n++
			s.runLeft -= k
			s.left -= uint64(k)
			continue
		}
		if rem := len(buf) - n; k > rem {
			k = rem
		}
		if s.mode == trace.Load {
			for i := 0; i < k; i++ {
				buf[n+i] = trace.Ref{Kind: trace.Load, Addr: s.loadAddr()}
			}
		} else {
			for i := 0; i < k; i++ {
				buf[n+i] = trace.Ref{Kind: trace.Store, Addr: s.storeAddr()}
			}
		}
		n += k
		s.runLeft -= k
		s.left -= uint64(k)
	}
	return n
}

// initNext emits the next reference of the initialisation sweep, if any:
// one store per line of the far, sequential, and warm regions (in that
// order, so the hottest data is installed last and remains resident), then
// one load per hot line so the hot set starts L1-resident.  The far sweep
// is skipped outright if the whole sweep would not fit the budget.
func (s *synthGen) initNext() (trace.Ref, bool) {
	for {
		if s.initBudget == 0 {
			s.initPhase = 4
		}
		var base mem.Addr
		var lines int
		switch s.initPhase {
		case 0:
			total := uint64(s.p.FarLines + s.p.SeqRegionLines + s.p.WarmLines + s.p.HotLines)
			if total > s.initBudget {
				s.initPhase = 1
				continue
			}
			base, lines = s.far, s.p.FarLines
		case 1:
			base, lines = s.seq, s.p.SeqRegionLines
		case 2:
			base, lines = s.warm, s.p.WarmLines
		case 3:
			if s.initIdx < s.p.HotLines {
				addr := s.hot + mem.Addr(s.initIdx)*lineBytes
				s.initIdx++
				s.initBudget--
				return trace.Ref{Kind: trace.Load, Addr: addr}, true
			}
			s.initPhase, s.initIdx = 4, 0
			continue
		default:
			return trace.Ref{}, false
		}
		if s.initIdx >= lines {
			s.initPhase++
			s.initIdx = 0
			continue
		}
		addr := base + mem.Addr(s.initIdx)*lineBytes
		s.initIdx++
		s.initBudget--
		return trace.Ref{Kind: trace.Store, Addr: addr}, true
	}
}

func (s *synthGen) pickBlock() {
	u := s.r.Float64()
	switch {
	case u < s.qLoad:
		s.mode = trace.Load
		s.runLeft = s.geoLoad.Sample(s.r)
	case u < s.qLoad+s.qStore:
		s.mode = trace.Store
		s.runLeft = s.geoStore.Sample(s.r)
	default:
		s.mode = trace.Exec
		s.runLeft = s.geoExec.Sample(s.r)
	}
}

// loadAddr and storeAddr are written for draw economy: every address costs
// at most two RNG draws.  One Float64 classifies the reference — with the
// far-versus-warm split folded into the same draw via the precomputed
// farCut threshold, exploiting that u is still uniform conditioned on
// landing in the cold branch — and one Uint64 picks the line and the word
// jointly (a single Lemire reduction over lines×words, split back by
// div/mod; WordsPerLine is a power of two, so both compile to shifts).
// The Lemire idiom (bits.Mul64 high word) is spelled out rather than
// calling rng.Intn so it inlines completely.  The per-reference *sequence*
// of draws differs from the original one-draw-per-decision scheme; the
// sampled distribution is identical, which is all the calibration suite
// pins (see docs/PERFORMANCE.md on the PR-6 realization change).

// jointLW splits one uniform draw over lines·WordsPerLine into a line
// index and a word offset.
func jointLW(x uint64, lines int) (line, word mem.Addr) {
	hi, _ := bits.Mul64(x, uint64(lines)*mem.WordsPerLine)
	return mem.Addr(hi / mem.WordsPerLine), mem.Addr(hi % mem.WordsPerLine)
}

func (s *synthGen) loadAddr() mem.Addr {
	u := s.r.Float64()
	switch {
	case u < s.p.LoadRecent && s.recentLen > 0:
		line, word := jointLW(s.r.Uint64(), s.recentLen)
		return s.recent[line] + word*mem.WordBytes
	case u < s.qHot:
		line, word := jointLW(s.r.Uint64(), s.p.HotLines)
		return s.hot + line*lineBytes + word*mem.WordBytes
	case u < s.farCut:
		line, word := jointLW(s.r.Uint64(), s.p.FarLines)
		return s.far + line*lineBytes + word*mem.WordBytes
	default:
		line, word := jointLW(s.r.Uint64(), s.p.WarmLines)
		return s.warm + line*lineBytes + word*mem.WordBytes
	}
}

func (s *synthGen) storeAddr() mem.Addr {
	var addr mem.Addr
	if s.r.Float64() < s.p.StoreSeq {
		s.seqCursor += mem.WordBytes
		if s.seqCursor >= s.seq+mem.Addr(s.p.SeqRegionLines)*lineBytes {
			s.seqCursor = s.seq
		}
		addr = s.seqCursor
	} else {
		span := s.p.StoreLines
		if span > s.p.WarmLines {
			span = s.p.WarmLines
		}
		line, word := jointLW(s.r.Uint64(), span)
		addr = s.warm + line*lineBytes + word*mem.WordBytes
	}
	s.pushRecent(addr &^ (lineBytes - 1))
	return addr
}

func (s *synthGen) pushRecent(line mem.Addr) {
	s.recent[s.recentPos] = line
	s.recentPos = (s.recentPos + 1) % len(s.recent)
	if s.recentLen < len(s.recent) {
		s.recentLen++
	}
}

// registerProfile wires a profile into the benchmark registry; a profile
// that fails validation is a programming error.
func registerProfile(name string, group Group, target Target, p Profile) {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("workload: profile %q: %v", name, err))
	}
	register(Benchmark{
		Name:   name,
		Group:  group,
		Target: target,
		gen:    func(n uint64) trace.Generator { return newSynth(p, n) },
	})
}
