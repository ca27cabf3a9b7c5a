package workload

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/trace"
)

// derive resolves the name of a stream derived from registered benchmarks.
// The name is the stream's whole identity: a job ships it, a worker
// rebuilds the stream from it and the result store keys on it.  The
// grammar, with operands that are registered names (names do not nest):
//
//	p~s<k>          profile-driven benchmark p with its seed shifted by k
//	b / none        b unchanged
//	b / <p>         b with a membar after every p instructions
//	a+b / none      a for n/2 instructions, then b for the rest
//	a+b / <q>       the same two time-sliced with a quantum of q
//	bernoulli-q<q>  a store to a fresh line with probability q (two decimals)
//
// Only the canonical spelling resolves — the one derive renders back from
// what it parsed — so "li / 01000", "li / 0" and "li~s01" do not, and every
// derived stream has exactly one name and one store key.
func derive(name string) (Benchmark, bool) {
	out, canon := Benchmark{Name: name}, ""
	if q, ok := strings.CutPrefix(name, "bernoulli-q"); ok {
		if p, err := strconv.ParseFloat(q, 64); err == nil && p > 0 && p <= 1 {
			canon = fmt.Sprintf("bernoulli-q%.2f", p)
			out.gen = func(n uint64) trace.Generator { return &bernoulli{r: rng.New(7), q: p, left: n} }
		}
	} else if base, s, ok := strings.Cut(name, "~s"); ok {
		k, err := strconv.ParseUint(s, 10, 64)
		for _, np := range syntheticProfiles {
			if np.Name == base && err == nil {
				p := np.Profile
				p.Seed += k * 1_000_003 // spread shifted seeds far apart
				canon, out.Group, out.Target = fmt.Sprintf("%s~s%d", base, k), np.Group, paperTargets[base]
				out.gen = func(n uint64) trace.Generator { return newSynth(p, n) }
			}
		}
	} else if lhs, rhs, ok := strings.Cut(name, " / "); ok {
		k, err := strconv.ParseUint(rhs, 10, 64) // 0 renders as "none"
		if rhs == "none" {
			k, err = 0, nil
		}
		a, b, pair := strings.Cut(lhs, "+")
		ga, okA := registered(a)
		gb, okB := registered(b)
		if err == nil && okA && (okB || !pair) {
			canon = lhs + " / none"
			if k > 0 {
				canon = fmt.Sprintf("%s / %d", lhs, k)
			}
			out.gen = func(n uint64) trace.Generator {
				if !pair {
					return trace.NewInject(ga.Generator(n), trace.Ref{Kind: trace.Membar}, k)
				}
				x, y := ga.Generator(n/2), gb.Generator(n-n/2)
				if k == 0 {
					return trace.NewConcat(x, y)
				}
				return trace.NewInterleave(k, x, y)
			}
		}
	}
	return out, out.gen != nil && canon == name
}

// bernoulli mirrors the analytic model's arrival assumptions: each of its
// instructions is, with probability q, an allocating store (a fresh line,
// so it never merges) and otherwise a plain Exec.
type bernoulli struct {
	r    *rng.RNG
	q    float64
	line mem.Addr
	left uint64
}

// Fill implements trace.Generator.
func (g *bernoulli) Fill(buf []trace.Ref) int {
	n := int(min(uint64(len(buf)), g.left))
	for i := range buf[:n] {
		buf[i] = trace.Ref{Kind: trace.Exec}
		if g.r.Bool(g.q) {
			g.line += mem.LineBytes
			buf[i] = trace.Ref{Kind: trace.Store, Addr: g.line}
		}
	}
	g.left -= uint64(n)
	return n
}
