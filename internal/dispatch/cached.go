package dispatch

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/machconf"
	"repro/internal/metrics"
	"repro/internal/resultstore"
)

// Cached wraps any Backend with the platform's shared content-addressed
// result store (internal/resultstore).  Before a job reaches the inner
// backend — local execution or a remote pool — the store is consulted under the canonical `bench|n|machconf-hash` key; a
// hit returns the stored measurement without simulating anything, and a
// miss simulates once and persists the result for every future process,
// tenant, and CLI that asks for the same machine.
//
// The store answers both "never pay for the same simulation twice,
// anywhere" and "resume this sweep": rerunning a killed sweep over the
// same store simulates only the jobs it had not finished.  Stacked as
// Cached(Remote) — the shape BuildBackendOpts builds with workers — the
// store is the outermost, cross-process tier.
//
// Stored payloads are label-stripped (the label is presentation) and
// re-labelled per request, so
// sweeps that name their columns differently still share entries.  Jobs
// whose configuration has no canonical machconf encoding (an unregistered
// custom policy) pass through uncached.  A store write that fails does not
// fail the job: the measurement is returned, the store counts and logs the
// failure, and the next request for the key simply misses and re-runs.
type Cached struct {
	inner  Backend
	store  resultstore.KV
	hits   *metrics.Counter
	misses *metrics.Counter
}

// NewCached wraps inner with the store — any resultstore.KV: a
// resultstore.Store over any number of replica directories, or a test
// double.  reg, when non-nil,
// receives dispatch_store_hits_total and dispatch_store_misses_total — the
// series the zero-resimulation acceptance tests assert on (the store's own
// resultstore_* series count at store granularity; these count at dispatch
// granularity, i.e. misses == simulations actually paid for).
func NewCached(inner Backend, store resultstore.KV, reg *metrics.Registry) *Cached {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Cached{
		inner:  inner,
		store:  store,
		hits:   reg.Counter("dispatch_store_hits_total"),
		misses: reg.Counter("dispatch_store_misses_total"),
	}
}

// StoreKey renders a job's result-store key, or an error for a machine
// with no canonical encoding.
func StoreKey(job Job) (key, cfgHash string, err error) {
	cfgHash, err = machconf.Hash(job.Cfg)
	if err != nil {
		return "", "", err
	}
	return resultstore.Key(job.Bench, job.N, cfgHash), cfgHash, nil
}

// Run implements Backend.
func (c *Cached) Run(ctx context.Context, job Job) (Measurement, error) {
	key, cfgHash, err := StoreKey(job)
	if err != nil {
		return c.inner.Run(ctx, job) // uncacheable; still executable locally
	}
	if payload, ok := c.store.Get(key); ok {
		var m Measurement
		if err := json.Unmarshal(payload, &m); err == nil {
			c.hits.Inc()
			m.Label = job.Label
			return m, nil
		}
		// A stored payload that passed its checksum but does not decode is
		// a schema skew (an old store against a new Measurement); fall
		// through and overwrite it with a fresh execution.
	}
	c.misses.Inc()
	m, err := c.inner.Run(ctx, job)
	if err != nil {
		return Measurement{}, err
	}
	stored := m
	stored.Label = "" // labels are presentation; share entries across sweeps
	payload, err := json.Marshal(stored)
	if err != nil {
		return Measurement{}, fmt.Errorf("dispatch: encoding measurement for store: %w", err)
	}
	_ = c.store.Put(key, cfgHash, payload) // counted and logged by the store
	return m, nil
}

// Concurrency forwards the inner backend's dispatch-parallelism hint.
func (c *Cached) Concurrency() int {
	if h, ok := c.inner.(interface{ Concurrency() int }); ok {
		return h.Concurrency()
	}
	return 0
}
