package main

import (
	"fmt"
	"math"
	"sort"
)

// minSamples is the fewest samples a percentile may be taken from: at
// least ten samples must lie beyond it, so a p50 needs 20 and a p90 100.
func minSamples(q float64) int {
	return int(math.Ceil(10/(1-q) - 1e-9))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.  It refuses sample sets too small for q (minSamples), so a
// tail percentile is never reported from a handful of points.
func quantile(xs []float64, q float64) (float64, error) {
	if need := minSamples(q); len(xs) < need {
		return 0, fmt.Errorf("p%g needs at least %d samples, have %d", q*100, need, len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median is the middle of a small set of repeated measurements (set-up
// repetitions, probe batches); unlike quantile it has no sample floor.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencyStats is one latency class: its samples in milliseconds, and how
// many samples were left out for falling in seconds the host disturbed.
type latencyStats struct {
	name    string
	samples []float64
	dropped int
}

// percentiles returns the class's windowed p50 and p90, failing when the
// class has too few samples for either.
func (l *latencyStats) percentiles() (p50, p90 float64, err error) {
	if p50, err = windowedQuantile(l.samples, 0.5); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", l.name, err)
	}
	if p90, err = windowedQuantile(l.samples, 0.9); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", l.name, err)
	}
	return p50, p90, nil
}

// windowSize is the sample count of one percentile window: the fewest that
// leave ten samples beyond a p90.
const windowSize = 100

// windowedQuantile splits xs, in arrival order, into consecutive windows of
// at least windowSize samples and returns the interquartile mean of the
// windows' q-quantiles.  A slow spell of the shared host inflates the
// windows it falls in rather than the reported value.
func windowedQuantile(xs []float64, q float64) (float64, error) {
	k := len(xs) / windowSize
	if k == 0 {
		return quantile(xs, q) // fails the sample floor for a p90
	}
	per := make([]float64, k)
	for i := range per {
		v, err := quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
		if err != nil {
			return 0, err
		}
		per[i] = v
	}
	return iqMean(per), nil
}

// iqMean is the interquartile mean: the mean of the middle half of xs (all
// of xs when it has fewer than four values).  It ignores outlying windows
// like a median but averages the rest, so it moves less between runs.
func iqMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) >= 4 {
		q := len(s) / 4
		s = s[q : len(s)-q]
	}
	return mean(s)
}

// perSecond accumulates work by phase second.
type perSecond []float64

func (w *perSecond) add(sec int, v float64) {
	if sec < 0 {
		return
	}
	for len(*w) <= sec {
		*w = append(*w, 0)
	}
	(*w)[sec] += v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}
