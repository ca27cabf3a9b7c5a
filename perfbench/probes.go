package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dispatch"
	"repro/internal/jobqueue"
	"repro/internal/machconf"
	"repro/internal/resultstore"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Probe sizes: each probe times probeReps batches and reports the median
// batch's per-call time, so one descheduled batch does not move it.
const (
	probeReps    = 7
	rngCalls     = 2_000_000
	storeKeys    = 64
	queueJobs    = 256
	hitCalls     = 2000
	probeJobN    = 20_000
	probeGeoMean = 4.0
)

var sink uint64

// perCall times fn probeReps times and returns the median per-call time in
// the given unit.
func perCall(calls int, unit time.Duration, fn func()) float64 {
	var xs []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		fn()
		xs = append(xs, float64(time.Since(t0))/float64(calls)/float64(unit))
	}
	return median(xs)
}

// probeLayers times single calls into the layers a served request crosses —
// rng, machconf, resultstore, dispatch.Cached, jobqueue — on the same
// inputs in every workload, so a change to one layer shows as a number of
// its own.  dir is scratch space; it is removed before returning.
func probeLayers(o *outcome, dir string, cfgs []sim.Config) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	L := o.layer

	r := rng.New(1)
	L["rng.uint64_ns"] = metric{perCall(rngCalls, time.Nanosecond, func() {
		var s uint64
		for i := 0; i < rngCalls; i++ {
			s += r.Uint64()
		}
		sink += s
	}), "ns"}
	g := rng.NewGeo(probeGeoMean)
	L["rng.geo_sample_ns"] = metric{perCall(rngCalls, time.Nanosecond, func() {
		s := 0
		for i := 0; i < rngCalls; i++ {
			s += g.Sample(r)
		}
		sink += uint64(s)
	}), "ns"}

	var hashErr error
	L["machconf.hash_us"] = metric{perCall(len(cfgs), time.Microsecond, func() {
		for _, c := range cfgs {
			if _, err := machconf.Encode(c); err != nil {
				hashErr = err
			}
			if _, err := machconf.Hash(c); err != nil {
				hashErr = err
			}
		}
	}), "us"}
	if hashErr != nil {
		return hashErr
	}

	// A real payload: what dispatch.Cached stores for a baseline job.
	job := dispatch.Job{Bench: "li", Cfg: sim.Baseline(), N: probeJobN}
	m, err := dispatch.Execute(job, nil)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, cfgHash, err := dispatch.StoreKey(job)
	if err != nil {
		return err
	}
	keys := make([]string, storeKeys)
	for i := range keys {
		keys[i] = resultstore.Key(fmt.Sprintf("probe%d", i), probeJobN, cfgHash)
	}

	storeDir := filepath.Join(dir, "store")
	store, err := resultstore.Open(storeDir, resultstore.Options{MemoryEntries: 4 * storeKeys})
	if err != nil {
		return err
	}
	var puts []float64
	for _, k := range keys {
		t0 := time.Now()
		if err := store.Put(k, cfgHash, payload); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(t0))/1e3)
	}
	L["resultstore.put_us"] = metric{median(puts), "us"}
	var missing bool
	get := func(s *resultstore.Store) func() {
		return func() {
			for _, k := range keys {
				if _, ok := s.Get(k); !ok {
					missing = true
				}
			}
		}
	}
	L["resultstore.get_mem_us"] = metric{perCall(storeKeys, time.Microsecond, get(store)), "us"}
	// A one-entry memory tier over the same directory: cycling through the
	// keys makes every Get a checksum-verified disk read.
	diskOnly, err := resultstore.Open(storeDir, resultstore.Options{MemoryEntries: 1})
	if err != nil {
		return err
	}
	L["resultstore.get_disk_us"] = metric{perCall(storeKeys, time.Microsecond, get(diskOnly)), "us"}
	if missing {
		return fmt.Errorf("resultstore probe: a stored key read back missing")
	}

	cached := dispatch.NewCached(&dispatch.Local{}, store, nil)
	ctx := context.Background()
	if _, err := cached.Run(ctx, job); err != nil {
		return err
	}
	var hitErr error
	L["dispatch.cached_hit_us"] = metric{perCall(hitCalls, time.Microsecond, func() {
		for i := 0; i < hitCalls; i++ {
			if got, err := cached.Run(ctx, job); err != nil || got.C != m.C {
				hitErr = fmt.Errorf("dispatch.Cached hit probe: %v", err)
			}
		}
	}), "us"}
	if hitErr != nil {
		return hitErr
	}

	return probeQueue(o, filepath.Join(dir, "queue.jsonl"), job, cfgHash)
}

// probeQueue times jobqueue.Submit of one-job runs, then Dequeue plus Done
// of each, on a journal of its own.
func probeQueue(o *outcome, path string, job dispatch.Job, cfgHash string) error {
	blob, err := machconf.Encode(job.Cfg)
	if err != nil {
		return err
	}
	var submits, drains []float64
	for rep := 0; rep < probeReps; rep++ {
		q, err := jobqueue.Open(fmt.Sprintf("%s.%d", path, rep), nil, nil)
		if err != nil {
			return err
		}
		runs := make([]jobqueue.Run, queueJobs)
		for i := range runs {
			key := resultstore.Key(fmt.Sprintf("probe%d", i), job.N, cfgHash)
			runs[i] = jobqueue.Run{ID: fmt.Sprintf("r%d", i), Jobs: []jobqueue.Job{{Bench: job.Bench, N: job.N, Config: blob, Key: key}}}
		}
		t0 := time.Now()
		for _, run := range runs {
			if _, err := q.Submit(run, nil); err != nil {
				q.Close()
				return err
			}
		}
		submits = append(submits, float64(time.Since(t0))/1e3/queueJobs)
		t0 = time.Now()
		for range runs {
			j, err := q.Dequeue(context.Background())
			if err == nil {
				err = q.Done(j.Key)
			}
			if err != nil {
				q.Close()
				return err
			}
		}
		drains = append(drains, float64(time.Since(t0))/1e3/queueJobs)
		if err := q.Close(); err != nil {
			return err
		}
	}
	o.layer["jobqueue.submit_us"] = metric{median(submits), "us"}
	o.layer["jobqueue.dequeue_done_us"] = metric{median(drains), "us"}
	return nil
}
