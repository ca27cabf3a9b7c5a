package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http/httptrace"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/resultstore"
	"repro/internal/sim"
)

// serve_mixed settings.  mixedN keeps a simulation near 1 ms so HTTP,
// tenant, machconf, store and queue are a visible share of a miss.  Most
// requests repeat one of the hitWindow most recently answered keys; the
// window is below wbserve's default 256-entry memory tier, so every hit is
// one mode (a memory-tier read) rather than a memory/disk mix.
const (
	mixedN       = 20_000
	pNew         = 0.17
	pInflight    = 0.03
	hitWindow    = 128
	mixedSamples = 6 // per connection: its first new keys, checked byte for byte
)

type opKind int

const (
	opNew opKind = iota
	opRepeat
	opInflight
)

// op is one scheduled request.  A new op asks for the connection's next
// unused key (or config); a repeat asks for the back-th most recently
// answered one; an in-flight op asks for what the other connection is
// waiting on, falling back to a repeat when it waits on nothing.
type op struct {
	kind opKind
	back int
}

// schedule is one connection's seeded op sequence.
type schedule struct {
	r               *rand.Rand
	pNew, pInflight float64
	window          int
}

func newSchedule(seed, stream uint64, conn int, pNew, pInflight float64, window int) *schedule {
	return &schedule{
		r:    rand.New(rand.NewPCG(seed, stream<<8|uint64(conn))),
		pNew: pNew, pInflight: pInflight, window: window,
	}
}

func (s *schedule) next() op {
	x := s.r.Float64()
	back := s.r.IntN(s.window)
	switch {
	case x < s.pNew:
		return op{kind: opNew}
	case x < s.pNew+s.pInflight:
		return op{kind: opInflight, back: back}
	default:
		return op{kind: opRepeat, back: back}
	}
}

func newMixedSchedule(seed uint64, conn int) *schedule {
	return newSchedule(seed, 0x6d69786564, conn, pNew, pInflight, hitWindow)
}

// keySpace maps a key index to a (config, benchmark) pair.  The seeded
// permutation is dealt round-robin to the connections, so no two
// connections ever draw the same new key.
type keySpace struct {
	cfgs    []servedConfig
	benches []string
	perm    []int
	conns   int
}

func newKeySpace(seed uint64, cfgs []servedConfig, conns int) *keySpace {
	benches := benchNames()
	r := rand.New(rand.NewPCG(seed, 0x6b657973))
	return &keySpace{cfgs: cfgs, benches: benches, perm: r.Perm(len(cfgs) * len(benches)), conns: conns}
}

// newKey is connection conn's k-th new key index.
func (ks *keySpace) newKey(conn, k int) (int, error) {
	i := k*ks.conns + conn
	if i >= len(ks.perm) {
		return 0, fmt.Errorf("serve_mixed exhausted its %d new keys", len(ks.perm))
	}
	return ks.perm[i], nil
}

func (ks *keySpace) parts(key int) (servedConfig, string) {
	return ks.cfgs[key/len(ks.benches)], ks.benches[key%len(ks.benches)]
}

func (ks *keySpace) storeKey(key int, n uint64) string {
	c, b := ks.parts(key)
	return resultstore.Key(b, n, c.hash)
}

// mixedResponse mirrors wbserve's RunResponse.
type mixedResponse struct {
	Bench          string             `json:"bench"`
	Config         string             `json:"config"`
	Instructions   uint64             `json:"instructions"`
	Cycles         uint64             `json:"cycles"`
	CPI            float64            `json:"cpi"`
	StallPct       map[string]float64 `json:"stall_pct"`
	L1HitRate      float64            `json:"l1_hit_rate"`
	WBHitRate      float64            `json:"wb_hit_rate"`
	L2HitRate      float64            `json:"l2_hit_rate"`
	Loads          uint64             `json:"loads"`
	Stores         uint64             `json:"stores"`
	Retirements    uint64             `json:"retirements"`
	FlushedEntries uint64             `json:"flushed_entries"`
	WBReadHits     uint64             `json:"wb_read_hits"`
	HazardEvents   uint64             `json:"hazard_events"`
	Cached         bool               `json:"cached"`
}

// mixedStats is the measured phase's record.
type mixedStats struct {
	mu         sync.Mutex
	miss, hit  []timed
	missTraced []float64 // traced-run alternation: misses with spans
	missPlain  []float64
	firstByte  []float64 // misses: POST to the first response byte, ms
	attempted  int
	failed     int
	newKeys    map[int]bool
	inflights  int
	answered   perSecond
	ph         *phase
}

func runServeMixed(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	cfgs, err := servedConfigs()
	if err != nil {
		return nil, err
	}
	conns := min(cfg.procs, len(tenants))
	ks := newKeySpace(cfg.seed, cfgs, conns)
	s, err := setupServed(cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		o.spans = tr
	}
	var (
		answered  keyRing
		waiting   inflight
		digestsMu sync.Mutex
		digests   = map[int]uint64{} // key → digest of its first answer
		scheds    = make([]*schedule, conns)
		newCount  = make([]int, conns)
		reqSeq    = make([]uint64, conns)
	)
	for c := range scheds {
		scheds[c] = newMixedSchedule(cfg.seed, c)
	}

	// request performs connection c's next op; stats is nil in the warm pass.
	request := func(ctx context.Context, c int, st *mixedStats) error {
		next := scheds[c].next()
		var key int
		kind := next.kind
		if kind == opInflight {
			k, ok := waiting.other(c)
			if ok {
				key = k
			} else {
				kind = opRepeat
			}
		}
		if kind == opRepeat {
			k, ok := answered.recent(next.back)
			if ok {
				key = k
			} else {
				kind = opNew
			}
		}
		if kind == opNew {
			k, err := ks.newKey(c, newCount[c])
			if err != nil {
				return err
			}
			newCount[c]++
			key = k
			waiting.set(c, key)
			defer waiting.clear(c)
		}
		sc, bench := ks.parts(key)
		body, err := json.Marshal(map[string]any{"bench": bench, "n": mixedN, "config": sc.blob})
		if err != nil {
			return err
		}
		reqSeq[c]++
		traced := tr != nil && reqSeq[c]%2 == 0
		var sp open
		if traced {
			sp = tr.open("wbserve.post_run", 0, uint64(c)<<40|reqSeq[c])
		}
		var firstByte time.Time
		tctx := httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotFirstResponseByte: func() { firstByte = time.Now() },
		})
		var resp mixedResponse
		t0 := time.Now()
		_, perr := s.post(tctx, tenants[c%len(tenants)], body, &resp)
		took := time.Since(t0)
		if traced {
			tr.close(sp)
		}
		if st == nil {
			if perr != nil {
				return perr
			}
		}
		if perr != nil {
			o.note("serve_mixed: %v", perr)
		}
		ok := perr == nil && checkMixed(o, &resp, bench, key, digests, &digestsMu)
		if ok {
			answered.add(key)
		}
		if st == nil {
			return nil
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		st.attempted++
		if kind == opNew {
			st.newKeys[key] = true
		}
		if next.kind == opInflight && kind == opInflight {
			st.inflights++
		}
		if !ok {
			st.failed++
			return nil
		}
		end := t0.Add(took)
		st.answered.add(st.ph.second(end), 1)
		if resp.Cached {
			st.hit = append(st.hit, timed{t0, end})
			return nil
		}
		st.miss = append(st.miss, timed{t0, end})
		st.firstByte = append(st.firstByte, ms(firstByte.Sub(t0)))
		if tr != nil {
			if traced {
				st.missTraced = append(st.missTraced, ms(took))
			} else {
				st.missPlain = append(st.missPlain, ms(took))
			}
		}
		return nil
	}

	loop := func(stop func() bool, st *mixedStats) (time.Duration, error) {
		return closedLoop(conns, stop, func(c int) error { return request(context.Background(), c, st) })
	}

	warmEnd := time.Now().Add(serveWarm)
	if _, err := loop(func() bool { return time.Now().After(warmEnd) }, nil); err != nil {
		return nil, err
	}
	st := &mixedStats{newKeys: map[int]bool{}}
	var wall, drain time.Duration
	m, err := s.measure(cfg.seconds, func(ph *phase) error {
		st.ph = ph
		var err error
		wall, err = loop(ph.over, st)
		drain = time.Since(ph.doneAt)
		return err
	})
	if err != nil {
		return nil, err
	}
	ph, before, after := m.ph, m.before, m.after
	keep := ph.kept()
	o.attempted, o.failed = st.attempted, st.failed
	o.e2e["jobs_per_s"] = metric{ph.rate(keep, st.answered), "1/s"}
	o.e2e["mips"] = metric{ph.rate(keep, m.instr) / 1e6, "MIPS"}
	miss := ph.keptClass("misses", keep, st.miss)
	if err := o.latency(miss, "p50_ms", "p90_ms", "host.dropped_pct"); err != nil {
		return nil, err
	}
	hit := ph.keptClass("hits", keep, st.hit)
	if err := o.latency(hit, "hit_p50_ms", "hit_p90_ms", "host.hit_dropped_pct"); err != nil {
		return nil, err
	}
	o.hostLayers(ph, keep)
	o.e2e["peak_rss_mb"] = metric{m.rssMB, "MiB"}

	// The byte check reads the store after the server has stopped.
	storeDir, err := s.stopServed(cfg, o)
	if err != nil {
		return nil, err
	}
	store, err := resultstore.Open(storeDir, resultstore.Options{MemoryEntries: 1})
	if err != nil {
		return nil, err
	}
	var sample []sampleJob
	for c := 0; c < conns; c++ {
		for k := 0; k < mixedSamples; k++ {
			key, err := ks.newKey(c, k)
			if err != nil {
				return nil, err
			}
			sc, bench := ks.parts(key)
			sample = append(sample, sampleJob{
				job:   dispatch.Job{Bench: bench, Cfg: sc.cfg, N: mixedN},
				check: storedCheck(store, ks.storeKey(key, mixedN)),
			})
		}
	}
	generated, counts, err := checkSample(o, tr, sample)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		return o, nil
	}

	L := o.layer
	reportCounts(o, generated, counts, len(sample))
	if err := serverLayers(o, before, after, len(st.newKeys), wall, cfg.procs); err != nil {
		return nil, err
	}
	missP50 := o.e2e["p50_ms"].Value
	L["experiment.tail_ms"] = metric{ms(drain), "ms"}
	L["wbserve.admit_ms"] = metric{o.e2e["hit_p50_ms"].Value, "ms"}
	L["wbserve.first_event_ms"] = metric{median(st.firstByte), "ms"}
	L["wbserve.request_overhead_ms"] = metric{missP50 - meanJobMS(before, after), "ms"}
	L["trace.overhead_pct"] = metric{(median(st.missTraced)/median(st.missPlain) - 1) * 100, "%"}
	L["trace.spans"] = metric{float64(len(tr.snapshot())), "count"}
	L["wbserve.inflight_requests"] = metric{float64(st.inflights), "count"}
	agg := selfTimes(tr.snapshot())
	sampleLayers(o, agg, uint64(len(sample))*mixedN*ladderReps)
	return o, probeLayers(o, s.runDir+"-probe", probeConfigs(cfgs))
}

// checkMixed checks one answer: the requested benchmark, the measured
// window's exact instruction count, and — for a key answered before — the
// same fields as that first answer, the cached flag aside.
func checkMixed(o *outcome, r *mixedResponse, bench string, key int, digests map[int]uint64, mu *sync.Mutex) bool {
	if r.Bench != bench || r.Instructions != mixedN-mixedN/4 || r.Cycles < r.Instructions {
		o.failCheck("serve_mixed: %s answer has bench %q, %d instructions, %d cycles", bench, r.Bench, r.Instructions, r.Cycles)
		return false
	}
	norm := *r
	norm.Cached = false
	b, err := json.Marshal(norm)
	if err != nil {
		o.failCheck("serve_mixed: %v", err)
		return false
	}
	h := fnv.New64a()
	h.Write(b)
	d := h.Sum64()
	mu.Lock()
	defer mu.Unlock()
	if prev, ok := digests[key]; ok && prev != d {
		o.failCheck("serve_mixed: key %d answered with different counters on a repeat", key)
		return false
	}
	digests[key] = d
	return true
}

// probeConfigs is a fixed slice of the served machine pool for the
// machconf probe.
func probeConfigs(cfgs []servedConfig) []sim.Config {
	var out []sim.Config
	for i := 0; i < len(cfgs) && len(out) < 100; i += len(cfgs)/100 + 1 {
		out = append(out, cfgs[i].cfg)
	}
	return out
}
