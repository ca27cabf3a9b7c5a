package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/resultstore"
)

// serve_sweep settings.  Each op is one async 17-benchmark sweep of one
// machine; most are new machines, some resubmit one of the sweepWindow most
// recently finished machines (answered from the store's memory tier: 12 ×
// 17 keys fit its 256 entries), and some resubmit the machine the other
// connection is still sweeping — the in-flight resubmission that exposes
// the queue's dedupe race as dispatch.dup_executions.
const (
	serveSweepN    = 50_000
	pSweepNew      = 0.35
	pSweepInflight = 0.10
	sweepWindow    = 12
	sweepTimeout   = 90 * time.Second
	storedSeconds  = 4 * time.Second
)

func newSweepSchedule(seed uint64, conn int) *schedule {
	return newSchedule(seed, 0x7377656570, conn, pSweepNew, pSweepInflight, sweepWindow)
}

// cfgOrder is the seeded order of new machines, dealt round-robin to the
// connections so no two ever sweep the same new machine.
func cfgOrder(seed uint64, ncfgs int) []int {
	return rand.New(rand.NewPCG(seed, 0x6366676f)).Perm(ncfgs)
}

// runDoc is the part of wbserve's run document the benchmark reads.
type runDoc struct {
	ID        string `json:"id"`
	Total     int    `json:"total"`
	Done      int    `json:"done"`
	Complete  bool   `json:"complete"`
	EventsURL string `json:"events_url"`
}

// runEvent is the part of an SSE progress or done event the benchmark reads.
type runEvent struct {
	Seq        uint64 `json:"seq"`
	Done       int    `json:"done"`
	Total      int    `json:"total"`
	Complete   bool   `json:"complete"`
	FailedJobs int    `json:"failed_jobs"`
}

// sweepTimes is one served sweep's client-side timeline.
type sweepTimes struct {
	start, admitted, sseStart, firstEvent, lastProgress, done time.Time
	hit                                                       bool
	final                                                     runEvent
}

// runSweep submits one async sweep as tenant, follows it to its done event
// and requires every one of its want jobs done and none failed.
func (s *served) runSweep(ctx context.Context, tenant string, body []byte, want int, tr *tracer, req uint64) (sweepTimes, error) {
	sp := tr.open("wbserve.sweep", 0, req)
	defer tr.close(sp)
	var t sweepTimes
	var doc runDoc
	t.start = time.Now()
	post := tr.open("wbserve.post_run", sp.id, req)
	_, err := s.post(ctx, tenant, body, &doc)
	tr.close(post)
	t.admitted = time.Now()
	if err != nil {
		return t, err
	}
	t.hit = doc.Complete
	if err := s.follow(ctx, doc.EventsURL, &t, tr, sp.id, req); err != nil {
		return t, err
	}
	if !t.final.Complete || t.final.FailedJobs != 0 || t.final.Done != want {
		return t, fmt.Errorf("sweep %s ended with %d/%d done, %d failed", doc.ID, t.final.Done, t.final.Total, t.final.FailedJobs)
	}
	return t, nil
}

// follow reads a run's SSE stream to its done event.
func (s *served) follow(ctx context.Context, url string, t *sweepTimes, tr *tracer, parent, req uint64) error {
	sp := tr.open("wbserve.sse", parent, req)
	defer tr.close(sp)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, s.srv.base+url, nil)
	if err != nil {
		return err
	}
	t.sseStart = time.Now()
	resp, err := s.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	rd := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return fmt.Errorf("SSE stream ended before done: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if t.firstEvent.IsZero() {
				t.firstEvent = time.Now()
				tr.record("wbserve.sse_first_event", sp.id, req, t.sseStart, t.firstEvent)
			}
		case strings.HasPrefix(line, "data: "):
			var ev runEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return fmt.Errorf("SSE data: %w", err)
			}
			if event == "done" {
				t.done, t.final = time.Now(), ev
				return nil
			}
			if ev.Seq > 0 {
				t.lastProgress = time.Now()
			}
		}
	}
}

// sweepStats is the measured phase's record.
type sweepStats struct {
	mu          sync.Mutex
	ph          *phase
	miss        []timed
	delivered   perSecond // measurements, by completion second
	missTraced  []float64
	missPlain   []float64
	admits      []float64
	firstEvents []float64
	tails       []float64
	attempted   int
	failed      int
	newKeys     int
	inflights   int
}

func runServeSweep(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	cfgs, err := servedConfigs()
	if err != nil {
		return nil, err
	}
	conns := min(cfg.procs, len(tenants))
	order := cfgOrder(cfg.seed, len(cfgs))
	benches := benchNames()
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
		completed keyRing
		waiting   inflight
		scheds    = make([]*schedule, conns)
		newCount  = make([]int, conns)
		reqSeq    = make([]uint64, conns)
	)
	for c := range scheds {
		scheds[c] = newSweepSchedule(cfg.seed, c)
	}
	newCfg := func(c, k int) (int, error) {
		i := k*conns + c
		if i >= len(order) {
			return 0, fmt.Errorf("serve_sweep exhausted its %d machines", len(order))
		}
		return order[i], nil
	}

	sweep := func(ctx context.Context, c int, st *sweepStats) error {
		next := scheds[c].next()
		kind := next.kind
		var ci int
		if kind == opInflight {
			if k, ok := waiting.other(c); ok {
				ci = k
			} else {
				kind = opRepeat
			}
		}
		if kind == opRepeat {
			if k, ok := completed.recent(next.back); ok {
				ci = k
			} else {
				kind = opNew
			}
		}
		if kind == opNew {
			k, err := newCfg(c, newCount[c])
			if err != nil {
				return err
			}
			newCount[c]++
			ci = k
			waiting.set(c, ci)
			defer waiting.clear(c)
		}
		body, err := json.Marshal(map[string]any{"benches": benches, "n": serveSweepN, "config": cfgs[ci].blob, "async": true})
		if err != nil {
			return err
		}
		reqSeq[c]++
		req := uint64(c)<<40 | reqSeq[c]
		ttr := tr
		if reqSeq[c]%2 == 1 {
			ttr = nil // traced runs alternate traced and untraced sweeps
		}
		ctx, cancel := context.WithTimeout(ctx, sweepTimeout)
		defer cancel()
		t, err := s.runSweep(ctx, tenants[c%len(tenants)], body, len(benches), ttr, req)
		if st == nil {
			if err == nil && kind == opNew {
				completed.add(ci)
			}
			return err
		}
		if err != nil {
			o.note("serve_sweep: %v", err)
		} else if kind == opNew {
			completed.add(ci)
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		st.attempted++
		if kind == opNew {
			st.newKeys += len(benches)
		}
		if next.kind == opInflight && kind == opInflight {
			st.inflights++
		}
		if err != nil {
			st.failed++
			return nil
		}
		st.delivered.add(st.ph.second(t.done), float64(len(benches)))
		mk := ms(t.done.Sub(t.start))
		if t.hit {
			return nil // traffic; the hit class is timed on an idle pool below
		}
		st.miss = append(st.miss, timed{t.start, t.done})
		st.admits = append(st.admits, ms(t.admitted.Sub(t.start)))
		st.firstEvents = append(st.firstEvents, ms(t.firstEvent.Sub(t.sseStart)))
		if !t.lastProgress.IsZero() {
			st.tails = append(st.tails, ms(t.done.Sub(t.lastProgress)))
		}
		if tr != nil {
			if ttr != nil {
				st.missTraced = append(st.missTraced, mk)
			} else {
				st.missPlain = append(st.missPlain, mk)
			}
		}
		return nil
	}

	loop := func(stop func() bool, st *sweepStats) (time.Duration, error) {
		return closedLoop(conns, stop, func(c int) error { return sweep(context.Background(), c, st) })
	}

	warmEnd := time.Now().Add(serveWarm)
	if _, err := loop(func() bool { return time.Now().After(warmEnd) }, nil); err != nil {
		return nil, err
	}
	st := &sweepStats{}
	var wall time.Duration
	m, err := s.measure(cfg.seconds, func(ph *phase) error {
		st.ph = ph
		var err error
		wall, err = loop(ph.over, st)
		return err
	})
	if err != nil {
		return nil, err
	}
	ph, before, after := m.ph, m.before, m.after
	keep := ph.kept()
	o.attempted, o.failed = st.attempted, st.failed
	o.e2e["jobs_per_s"] = metric{ph.rate(keep, st.delivered), "1/s"}
	o.e2e["mips"] = metric{ph.rate(keep, m.instr) / 1e6, "MIPS"}
	miss := ph.keptClass("simulated sweeps", keep, st.miss)
	if err := o.latency(miss, "p50_ms", "p90_ms", "host.dropped_pct"); err != nil {
		return nil, err
	}
	// The hit class: both connections resubmit recently finished machines
	// to the now idle pool.  Timed under load, a stored sweep mostly waits
	// for a dispatcher to release a CPU, and its latency moved by a quarter
	// between runs.
	var storedMu sync.Mutex
	var stored []timed
	hp := startPhase(storedSeconds, nil)
	_, err = closedLoop(conns, hp.over, func(c int) error {
		ci, _ := completed.recent(scheds[c].r.IntN(sweepWindow))
		body, err := json.Marshal(map[string]any{"benches": benches, "n": serveSweepN, "config": cfgs[ci].blob, "async": true})
		if err != nil {
			return err
		}
		t, err := s.runSweep(context.Background(), tenants[c%len(tenants)], body, len(benches), nil, 0)
		if err == nil && !t.hit {
			err = fmt.Errorf("resubmitted finished machine %d was not answered from the store", ci)
		}
		storedMu.Lock()
		defer storedMu.Unlock()
		o.attempted++
		if err != nil {
			o.failed++
			o.note("serve_sweep: %v", err)
			return nil
		}
		stored = append(stored, timed{t.start, t.done})
		return nil
	})
	hp.stop()
	if err != nil {
		return nil, err
	}
	hit := hp.keptClass("stored sweeps", hp.kept(), stored)
	if err := o.latency(hit, "hit_p50_ms", "hit_p90_ms", "host.hit_dropped_pct"); err != nil {
		return nil, err
	}
	o.hostLayers(ph, keep)
	o.e2e["peak_rss_mb"] = metric{m.rssMB, "MiB"}

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
		ci, err := newCfg(c, 0)
		if err != nil {
			return nil, err
		}
		for _, b := range benches {
			sample = append(sample, sampleJob{
				job:   dispatch.Job{Bench: b, Cfg: cfgs[ci].cfg, N: serveSweepN},
				check: storedCheck(store, resultstore.Key(b, serveSweepN, cfgs[ci].hash)),
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
	if err := serverLayers(o, before, after, st.newKeys, wall, cfg.procs); err != nil {
		return nil, err
	}
	L["experiment.tail_ms"] = metric{mean(st.tails), "ms"}
	L["wbserve.admit_ms"] = metric{median(st.admits), "ms"}
	L["wbserve.first_event_ms"] = metric{median(st.firstEvents), "ms"}
	serverWork := float64(len(benches)) * meanJobMS(before, after) / float64(cfg.procs)
	L["wbserve.request_overhead_ms"] = metric{o.e2e["p50_ms"].Value - serverWork, "ms"}
	L["wbserve.inflight_requests"] = metric{float64(st.inflights), "count"}
	L["trace.overhead_pct"] = metric{(median(st.missTraced)/median(st.missPlain) - 1) * 100, "%"}
	L["trace.spans"] = metric{float64(len(tr.snapshot())), "count"}
	sampleLayers(o, selfTimes(tr.snapshot()), uint64(len(sample))*serveSweepN*ladderReps)
	return o, probeLayers(o, s.runDir+"-probe", probeConfigs(cfgs))
}
