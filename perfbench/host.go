package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The reference box is a VM whose hypervisor at times takes a third of its
// CPU time away for minutes on end ("steal" in /proc/stat).  A run that
// falls in such a spell measures the host, not the program.  So a measured
// phase runs until it has collected as many clean seconds (steal at most
// cleanSteal of CPU time) as asked for, or until phaseLimit times that in
// wall time, and every metric is computed over the cleanest such seconds.
const (
	cleanSteal = 0.05
	phaseLimit = 2.0
)

// readSteal returns the VM's cumulative steal and total CPU jiffies; both
// are 0 where /proc/stat is unavailable, which makes every second clean.
func readSteal() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, v := range fields[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// phase is a measured phase: a monitor samples steal every second and ends
// the phase once it holds want clean seconds, or at its wall-time limit.
type phase struct {
	start time.Time
	want  int
	tick  func(sec int) // called after each second is sampled; may be nil

	mu     sync.Mutex
	steal  []float64 // per second: share of CPU time stolen
	doneAt time.Time // when the phase had collected enough
	done   chan struct{}
	stopc  chan struct{}
	exit   chan struct{}
}

// startPhase starts a phase that wants seconds of clean measurement.
func startPhase(seconds time.Duration, tick func(sec int)) *phase {
	p := &phase{
		start: time.Now(),
		want:  max(1, int(seconds/time.Second)),
		tick:  tick,
		done:  make(chan struct{}),
		stopc: make(chan struct{}),
		exit:  make(chan struct{}),
	}
	limit := p.start.Add(time.Duration(phaseLimit * float64(seconds)))
	go func() {
		defer close(p.exit)
		s0, t0 := readSteal()
		clean, closed := 0, false
		for sec := 1; ; sec++ {
			select {
			case <-p.stopc:
				return
			case <-time.After(time.Until(p.start.Add(time.Duration(sec) * time.Second))):
			}
			s1, t1 := readSteal()
			frac := 0.0
			if t1 > t0 {
				frac = float64(s1-s0) / float64(t1-t0)
			}
			s0, t0 = s1, t1
			p.mu.Lock()
			p.steal = append(p.steal, frac)
			p.mu.Unlock()
			if p.tick != nil {
				p.tick(sec)
			}
			if frac <= cleanSteal {
				clean++
			}
			if !closed && (clean >= p.want || time.Now().After(limit)) {
				p.mu.Lock()
				p.doneAt = time.Now()
				p.mu.Unlock()
				close(p.done)
				closed = true
			}
		}
	}()
	return p
}

// over reports whether the phase has collected enough.
func (p *phase) over() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop ends the monitor and waits for it; call it once the load has
// drained.
func (p *phase) stop() {
	close(p.stopc)
	<-p.exit
}

// kept marks the want cleanest whole seconds of the phase (earlier seconds
// first among equals).  Metrics count only work inside kept seconds.
func (p *phase) kept() []bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := make([]int, len(p.steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return p.steal[idx[a]] < p.steal[idx[b]] })
	keep := make([]bool, len(p.steal))
	for _, i := range idx[:min(p.want, len(idx))] {
		keep[i] = true
	}
	return keep
}

// stealPct reports the mean steal of every second and of the kept seconds,
// in percent.
func (p *phase) stealPct(keep []bool) (all, kept float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var a, k []float64
	for i, f := range p.steal {
		a = append(a, 100*f)
		if keep[i] {
			k = append(k, 100*f)
		}
	}
	return mean(a), mean(k)
}

// second is the index of the phase second t falls in.
func (p *phase) second(t time.Time) int { return int(t.Sub(p.start) / time.Second) }

// timed is one latency sample: when the operation started and ended.
type timed struct{ start, end time.Time }

// keptClass is the latency class of the samples, in ms and arrival order,
// that started in a kept second.  A sample is judged by its start alone,
// so a long one is no likelier to be dropped than a short one; the class
// records how many were dropped.
func (p *phase) keptClass(name string, keep []bool, xs []timed) *latencyStats {
	l := &latencyStats{name: name}
	for _, x := range xs {
		if s := p.second(x.start); s >= 0 && s < len(keep) && keep[s] {
			l.samples = append(l.samples, ms(x.end.Sub(x.start)))
		} else {
			l.dropped++
		}
	}
	return l
}

// rate returns the interquartile mean, over kept seconds, of the work
// completed per second; perSec[i] is the work completed in second i.
func (p *phase) rate(keep []bool, perSec []float64) float64 {
	var xs []float64
	for i, k := range keep {
		if k {
			v := 0.0
			if i < len(perSec) {
				v = perSec[i]
			}
			xs = append(xs, v)
		}
	}
	return iqMean(xs)
}

// rep is one timed set-up repetition and whether the host stole CPU time
// during it.
type rep struct {
	took  float64 // seconds
	clean bool
}

// cleanReps keeps the set-up repetitions during which the steal counter did
// not advance, when at least half of them qualify; otherwise all of them.
func cleanReps(reps []rep) []float64 {
	var clean, all []float64
	for _, r := range reps {
		all = append(all, r.took)
		if r.clean {
			clean = append(clean, r.took)
		}
	}
	if 2*len(clean) >= len(all) {
		return clean
	}
	return all
}

// timeRep times fn and notes whether the host stole CPU time meanwhile.
func timeRep(fn func() error) (rep, error) {
	s0, _ := readSteal()
	t0 := time.Now()
	err := fn()
	took := time.Since(t0).Seconds()
	s1, _ := readSteal()
	return rep{took: took, clean: s1 == s0}, err
}

// hostLayers reports how much CPU time the host stole during the measured
// phase — over all its seconds and over the kept ones — and the phase's
// length in whole seconds.
func (o *outcome) hostLayers(ph *phase, keep []bool) {
	all, kept := ph.stealPct(keep)
	o.layer["host.steal_pct"] = metric{all, "%"}
	o.layer["host.kept_steal_pct"] = metric{kept, "%"}
	o.layer["host.phase_s"] = metric{float64(len(keep)), "s"}
}
