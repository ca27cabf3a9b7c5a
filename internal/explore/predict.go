package explore

import (
	"repro/internal/analytic"
	backendpkg "repro/internal/backend"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file is the bridge between the design space and the analytic Markov
// model: it maps a full sim.Config plus a benchmark's paper-calibrated
// statistics onto analytic.Params and turns the solved chain into the CPI
// overhead figure the guided strategy ranks by.
//
// Two levels of fidelity are exposed.  Predict is the *validated* part: the
// buffer-full overhead the chain actually models, which the property test
// in internal/analytic/validate_test.go holds within a documented tolerance
// of the cycle-exact simulator on the model's own workload.  Score adds two
// heuristic terms (read port interference and a hazard-policy prior) that
// make the *ranking* sharper; they are deliberately not part of the
// validated prediction, and the guided strategy never trusts either number
// as a measurement — it only uses them to decide where to spend cycle-exact
// simulations.

// Params maps a machine and a benchmark profile onto the analytic model's
// parameters.  The allocation rate folds the benchmark's baseline
// write-buffer hit rate into its store fraction, as the model's
// documentation prescribes; the high-water mark comes from the retirement
// policy via highWaterOf.
func Params(t workload.Target, cfg sim.Config) analytic.Params {
	alloc := t.PctStores / 100 * (1 - t.WBHitRate/100)
	if alloc >= 0.97 {
		alloc = 0.97
	}
	if alloc < 0 {
		alloc = 0
	}
	depth := cfg.WB.Depth
	if cfg.WriteCacheDepth > 0 {
		depth = cfg.WriteCacheDepth
	}
	return analytic.Params{
		AllocRate:  alloc,
		ServiceLat: int(cfg.L2WriteLat + cfg.WriteTransferCycles),
		Depth:      depth,
		HighWater:  highWaterOf(cfg, depth),
	}
}

// highWaterOf extracts the retire-at mark the model needs from whatever
// retirement policy the machine runs.  A write cache only writes back on
// replacement, so it behaves like a retire-at-full buffer; eager and
// fixed-rate policies drain from occupancy 1; an unknown custom policy gets
// the neutral half-depth guess.
func highWaterOf(cfg sim.Config, depth int) int {
	if cfg.WriteCacheDepth > 0 {
		return depth
	}
	var hwm int
	switch p := cfg.Retire.(type) {
	case core.RetireAt:
		hwm = p.N
	case core.Eager, core.FixedRate:
		hwm = 1
	default:
		hwm = depth / 2
	}
	if hwm < 1 {
		hwm = 1
	}
	if hwm > depth {
		hwm = depth
	}
	return hwm
}

// Predict returns the analytic model's buffer-full CPI overhead for one
// benchmark on one machine: predicted stall cycles per instruction, the
// model-side analogue of Counters.Stalls[BufferFull]/Instructions.  This is
// the quantity the validation property test pins against the simulator.
//
// The chain is fifo-only and flat-backend-only: it models one FIFO of
// cfg.WB.Depth entries draining at the fixed channel rate, and knows
// nothing about buffer organizations or memory backends, so for a non-nil
// cfg.Org or cfg.Backend this is the prediction for the same-depth FIFO
// over a flat drain.  The validated contract covers only that machine;
// organization and backend corrections are ranking heuristics and live in
// Score (ftlResidual, bankedResidual).
func Predict(t workload.Target, cfg sim.Config) (float64, error) {
	pred, err := analytic.Solve(Params(t, cfg))
	if err != nil {
		return 0, err
	}
	return pred.CPIOverhead(), nil
}

// Score returns the guided strategy's ranking key for one benchmark: the
// validated blocking overhead plus two heuristic terms —
//
//   - read interference: an L1 load miss that finds the L2 port mid-write
//     waits for the residual service time, so expected extra cycles per
//     instruction ≈ missRate × utilization × serviceLat/2;
//   - a hazard prior: flushing policies pay for hazards in proportion to
//     how often a miss can hit a non-empty buffer, ordered flush-full >
//     flush-partial > flush-item-only > read-from-WB exactly as the paper
//     measures.  A write cache reads its own entries, so it pays nothing.
//
// Lower is better.  Ties (e.g. hazard variants of one buffer shape, when
// the occupancy term vanishes) are broken by the caller on the canonical
// hash, so ranking is always total and deterministic.
func Score(t workload.Target, cfg sim.Config) (float64, error) {
	p := Params(t, cfg)
	pred, err := analytic.Solve(p)
	if err != nil {
		return 0, err
	}
	score := pred.CPIOverhead()
	missRate := t.PctLoads / 100 * (1 - t.L1HitRate/100)
	serviceLat := float64(p.ServiceLat)
	score += missRate * pred.Utilization * serviceLat / 2
	if cfg.WriteCacheDepth == 0 {
		nonEmpty := 1.0
		if len(pred.Occupancy) > 0 {
			nonEmpty = 1 - pred.Occupancy[0]
		}
		score += hazardRank(cfg.Hazard) / 3 * missRate * nonEmpty * serviceLat
	}
	// ftl organizations and banked backends carry a residual correction
	// (a ranking prior, never a validated prediction); any other
	// organization ranks as the same-depth fifo and any other backend as
	// the flat drain — the chain's own approximations.  The fenced wrap
	// itself contributes nothing: Target carries no fence rate, so its
	// cost is invisible to the screen and left to measurement.
	if cfg.Org != nil && cfg.WriteCacheDepth == 0 && cfg.Org.OrgName() == "ftl" {
		score = ftlResidual(t, cfg, score)
	}
	if spec := unwrapFenced(cfg.Backend); spec != nil && spec.BackendName() == "banked" {
		score = bankedResidual(t, cfg, score)
	}
	return score, nil
}

// unwrapFenced strips a fenced wrap off a backend spec, returning the
// backend that actually times the writes.
func unwrapFenced(spec backendpkg.Spec) backendpkg.Spec {
	if f, ok := spec.(backendpkg.FencedSpec); ok {
		return f.Inner
	}
	return spec
}

// bankedResidual corrects the flat approximation for DRAM-style banking:
// the chain's service latency is the channel burst, but a banked drain
// keeps each bank busy for its row service, so sustained retirement rate
// is governed by the slower of the two.  With uniformly striped addresses
// the N banks hide all but 1/N of the excess service, giving the effective
// per-write latency burst + (service − burst)/N; the residual adds the
// (non-negative) blocking difference the chain predicts at that latency.
// Defaults (RowMiss 0) drain at the channel rate — exactly flat, zero
// residual — and more banks at fixed service monotonically shrink it.
func bankedResidual(t workload.Target, cfg sim.Config, flatScore float64) float64 {
	b, ok := unwrapFenced(cfg.Backend).(backendpkg.BankedSpec)
	if !ok || b.RowMiss == 0 {
		return flatScore
	}
	banks := b.Banks
	if banks < 1 {
		banks = 1
	}
	whole := Params(t, cfg)
	wholeSol, err := analytic.Solve(whole)
	if err != nil {
		return flatScore
	}
	burst := float64(whole.ServiceLat)
	svc := float64(b.RowMiss)
	if svc < burst {
		svc = burst // bank service never completes before the channel burst
	}
	adj := whole
	adj.ServiceLat = int(burst + (svc-burst)/float64(banks) + 0.5)
	adjSol, err := analytic.Solve(adj)
	if err != nil {
		return flatScore
	}
	residual := adjSol.CPIOverhead() - wholeSol.CPIOverhead()
	if residual < 0 {
		residual = 0
	}
	return flatScore + residual
}

// ftlResidual corrects the fifo approximation for address striping: a
// store blocks when its *home* buffer is full, so with uniformly striped
// addresses each of the NB buffers behaves like an independent chain
// receiving 1/NB of the allocations into Depth/NB entries, and the total
// blocking overhead is NB times one such chain's.  The residual adds the
// (non-negative) difference between that and the whole-buffer chain.
// Sector coarsening has no blocking effect and is not modelled — its
// payoff is on the cost axis (CostProxy).
func ftlResidual(t workload.Target, cfg sim.Config, fifoScore float64) float64 {
	f, ok := cfg.Org.(core.FTLOrg)
	if !ok || f.NumBuffers <= 1 {
		return fifoScore
	}
	whole := Params(t, cfg)
	wholeSol, err := analytic.Solve(whole)
	if err != nil {
		return fifoScore
	}
	per := whole
	per.AllocRate = whole.AllocRate / float64(f.NumBuffers)
	per.Depth = whole.Depth / f.NumBuffers
	if per.Depth < 1 {
		per.Depth = 1
	}
	per.HighWater = (whole.HighWater + f.NumBuffers - 1) / f.NumBuffers
	if per.HighWater > per.Depth {
		per.HighWater = per.Depth
	}
	perSol, err := analytic.Solve(per)
	if err != nil {
		return fifoScore
	}
	residual := float64(f.NumBuffers)*perSol.CPIOverhead() - wholeSol.CPIOverhead()
	if residual < 0 {
		residual = 0
	}
	return fifoScore + residual
}

// hazardRank orders the paper's policies by flushing aggressiveness.
func hazardRank(h core.HazardPolicy) float64 {
	switch h {
	case core.FlushFull:
		return 3
	case core.FlushPartial:
		return 2
	case core.FlushItemOnly:
		return 1
	default: // ReadFromWB and anything more precise
		return 0
	}
}

// ScoreSuite averages Score over a benchmark suite — the aggregate ranking
// key for a candidate.  The mean is computed in suite order, so it is
// deterministic.
func ScoreSuite(benches []workload.Benchmark, cfg sim.Config) (float64, error) {
	var sum float64
	for _, b := range benches {
		s, err := Score(b.Target, cfg)
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum / float64(len(benches)), nil
}
