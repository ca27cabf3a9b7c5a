package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// span is one timed call the benchmark made into a layer: its name, its
// interval, the span that caused it, and the request it belongs to.
type span struct {
	id, parent uint64
	req        uint64
	name       string
	start, end int64 // ns since the tracer's origin
}

// tracer keeps a traced run's spans in memory; write flushes them when the
// run ends.  A nil *tracer records nothing, so untraced runs pay one nil
// check per boundary.
type tracer struct {
	origin time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)} }

// open is a started span, closed by tracer.close.
type open struct {
	span
}

func (t *tracer) open(name string, parent, req uint64) open {
	if t == nil {
		return open{}
	}
	return open{span{id: t.nextID.Add(1), parent: parent, req: req, name: name, start: int64(time.Since(t.origin))}}
}

func (t *tracer) close(o open) {
	if t == nil {
		return
	}
	o.end = int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans = append(t.spans, o.span)
	t.mu.Unlock()
}

// record adds a span whose interval the caller measured itself.
func (t *tracer) record(name string, parent, req uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	id := t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, name: name,
		start: int64(start.Sub(t.origin)), end: int64(end.Sub(t.origin))})
	t.mu.Unlock()
	return id
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as CSV (id,parent,req,name,start_ns,end_ns).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns")
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the per-name aggregate of a span set.
type layerTime struct {
	count      int
	total, own int64 // ns: summed durations, summed self times
}

// selfTimes aggregates spans by name.  A span's self time is its duration
// minus the part of its interval covered by its children's intervals.
func selfTimes(spans []span) map[string]layerTime {
	kids := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		dur := s.end - s.start
		lt := out[s.name]
		lt.count++
		lt.total += dur
		lt.own += dur - covered(s.start, s.end, kids[s.id])
		out[s.name] = lt
	}
	return out
}

// covered returns the length of [lo,hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// timedGen times every Fill of the wrapped generator as a workload.fill
// span.  With count set it also sums the instructions the refs encode, in
// a span of its own so the count is not charged to either layer.
type timedGen struct {
	g           trace.Generator
	tr          *tracer
	parent, req uint64
	count       bool
	instr       uint64
}

func (t *timedGen) Fill(buf []trace.Ref) int {
	o := t.tr.open("workload.fill", t.parent, t.req)
	n := t.g.Fill(buf)
	t.tr.close(o)
	if t.count {
		c := t.tr.open("trace.count", t.parent, t.req)
		for _, r := range buf[:n] {
			t.instr += r.InstrCount()
		}
		t.tr.close(c)
	}
	return n
}

// tracedJob runs one job the way dispatch.ExecuteBench does, through the
// simulator's public functions, with the stream behind a timedGen: the
// sim.job span's self time is simulation, its workload.* children are
// reference generation.  It returns the instructions the generator produced
// when count is set.
func tracedJob(tr *tracer, parent, req uint64, b workload.Benchmark, label string, cfg sim.Config, n uint64, count bool) (dispatch.Measurement, uint64, error) {
	job := tr.open("sim.job", parent, req)
	defer tr.close(job)
	m, err := sim.New(cfg)
	if err != nil {
		return dispatch.Measurement{}, 0, err
	}
	st := tr.open("workload.stream", job.id, req)
	g := trace.GeneratorOf(b.Stream(n))
	tr.close(st)
	tg := &timedGen{g: g, tr: tr, parent: job.id, req: req, count: count}
	dispatch.WarmRunGenerator(m, tg, n)
	return measurementOf(m, b.Name, label, cfg), tg.instr, nil
}

// measurementOf assembles a finished machine's Measurement exactly as
// dispatch.ExecuteBench does; the golden digest check proves the two agree.
func measurementOf(m *sim.Machine, bench, label string, cfg sim.Config) dispatch.Measurement {
	c := m.Counters()
	l2 := 1.0
	if cfg.L2 != nil {
		l2 = m.L2Stats().ReadHitRate()
	}
	return dispatch.Measurement{
		Bench: bench,
		Label: label,
		C:     c,
		WBHit: m.WBStoreHitRate(),
		L1Hit: c.L1LoadHitRate(),
		L2Hit: l2,
	}
}

// sampleLayers reports generation and simulation per instruction from the
// self times of traced jobs' spans; instr is the instructions those jobs ran.
func sampleLayers(o *outcome, agg map[string]layerTime, instr uint64) {
	gen := float64(agg["workload.fill"].own + agg["workload.stream"].own)
	o.layer["workload.gen_ns_per_instr"] = metric{gen / float64(instr), "ns"}
	o.layer["workload.gen_share"] = metric{gen / float64(agg["sim.job"].total), "ratio"}
	o.layer["sim.ns_per_instr"] = metric{float64(agg["sim.job"].own) / float64(instr), "ns"}
}
