package faultline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dispatch"
)

// Backend wraps a dispatch.Backend with a scenario, injecting faults at
// the Run boundary instead of the HTTP transport.  It exercises the
// layers above dispatch — the experiment harness's fail-fast
// cancellation, store resume after a failed sweep — where no worker
// pool exists to wrap.
//
// Semantics mirror the HTTP middleware: a seeded subset of jobs (by
// result-store key, dispatch.StoreKey) fault on their first FaultCount calls and succeed after,
// so a resumed sweep completes.  Crash, Hang, and Storm surface as
// errors; Slow delays the real answer; Corrupt and BitFlip return a
// mutated measurement — modelling an untrusted inner backend, for testing
// whatever verification sits above this one.
type Backend struct {
	Inner    dispatch.Backend
	Scenario Scenario

	mu    sync.Mutex
	calls map[string]int
}

// Run implements dispatch.Backend.
func (b *Backend) Run(ctx context.Context, job dispatch.Job) (dispatch.Measurement, error) {
	key, _, err := dispatch.StoreKey(job)
	if err != nil {
		return b.Inner.Run(ctx, job) // unkeyable jobs have no schedule
	}
	jobHash := JobHash([]byte(key))
	if !b.Scenario.Targets(jobHash) {
		return b.Inner.Run(ctx, job)
	}
	b.mu.Lock()
	if b.calls == nil {
		b.calls = map[string]int{}
	}
	b.calls[key]++
	ordinal := b.calls[key]
	b.mu.Unlock()
	if ordinal > b.Scenario.FaultCount(jobHash) {
		return b.Inner.Run(ctx, job)
	}
	switch b.Scenario.Kind {
	case Crash, Storm, Partition:
		return dispatch.Measurement{}, fmt.Errorf("faultline: injected %s for job %s/%s", b.Scenario.Kind, job.Bench, job.Label)
	case Hang:
		<-ctx.Done()
		return dispatch.Measurement{}, ctx.Err()
	case Slow:
		t := time.NewTimer(b.Scenario.Latency)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return dispatch.Measurement{}, ctx.Err()
		case <-t.C:
		}
		return b.Inner.Run(ctx, job)
	case Corrupt:
		return dispatch.Measurement{}, errors.New("faultline: injected undecodable response")
	case BitFlip:
		m, err := b.Inner.Run(ctx, job)
		if err != nil {
			return m, err
		}
		m.WBHit = math.Float64frombits(math.Float64bits(m.WBHit) ^ 1)
		return m, nil
	default:
		return b.Inner.Run(ctx, job)
	}
}

// Concurrency forwards the inner backend's dispatch-parallelism hint.
func (b *Backend) Concurrency() int {
	if h, ok := b.Inner.(interface{ Concurrency() int }); ok {
		return h.Concurrency()
	}
	return 0
}
