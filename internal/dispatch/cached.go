package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

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

// Run implements Backend: the one-job RunRow.
func (c *Cached) Run(ctx context.Context, job Job) (Measurement, error) {
	r := c.RunRow(ctx, []Job{job})[0]
	return r.M, r.Err
}

// RunRow answers each job the store holds from the store and runs the
// rest through the inner backend in one RunRow call — one row over one
// generated stream when the inner backend runs rows (Local), one job at a
// time otherwise (Remote) — so jobs should share Bench and N.  Every miss
// that succeeds is stored before RunRow returns.  Each result's Time is
// the host time the inner backend attributed to the job plus an even share
// of the store lookups and writes, so the times sum to RunRow's wall time.
func (c *Cached) RunRow(ctx context.Context, jobs []Job) []RowResult {
	start := time.Now()
	out := make([]RowResult, len(jobs))
	type miss struct {
		i            int
		key, cfgHash string // empty for an uncacheable job
	}
	var misses []miss
	var missJobs []Job
	for i, job := range jobs {
		key, cfgHash, err := StoreKey(job)
		if err == nil {
			if m, ok := c.lookup(key); ok {
				c.hits.Inc()
				m.Label = job.Label
				out[i].M = m
				continue
			}
			c.misses.Inc()
		} // else uncacheable: still executable locally, never stored
		misses = append(misses, miss{i, key, cfgHash})
		missJobs = append(missJobs, job)
	}
	if len(missJobs) > 0 {
		for k, r := range RunRow(ctx, c.inner, missJobs) {
			ms := misses[k]
			if r.Err == nil && ms.key != "" {
				if err := c.put(ms.key, ms.cfgHash, r.M); err != nil {
					r = RowResult{Err: err, Time: r.Time}
				}
			}
			out[ms.i] = r
		}
	}
	var owned time.Duration
	for _, r := range out {
		owned += r.Time
	}
	shared := (time.Since(start) - owned) / time.Duration(max(len(jobs), 1))
	for i := range out {
		out[i].Time += shared
	}
	return out
}

// lookup decodes the stored measurement under key.  A stored payload that
// passed its checksum but does not decode is a schema skew (an old store
// against a new Measurement); it reads as a miss, so a fresh execution
// overwrites it.
func (c *Cached) lookup(key string) (Measurement, bool) {
	payload, ok := c.store.Get(key)
	if !ok {
		return Measurement{}, false
	}
	var m Measurement
	if err := json.Unmarshal(payload, &m); err != nil {
		return Measurement{}, false
	}
	return m, true
}

// put stores m label-stripped: labels are presentation, so sweeps that
// name their columns differently share entries.  A store write that fails
// is counted and logged by the store and does not fail the job.
func (c *Cached) put(key, cfgHash string, m Measurement) error {
	m.Label = ""
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dispatch: encoding measurement for store: %w", err)
	}
	_ = c.store.Put(key, cfgHash, payload)
	return nil
}

// Concurrency forwards the inner backend's dispatch-parallelism hint.
func (c *Cached) Concurrency() int {
	if h, ok := c.inner.(interface{ Concurrency() int }); ok {
		return h.Concurrency()
	}
	return 0
}
