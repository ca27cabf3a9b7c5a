package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/machconf"
	"repro/internal/metrics"
	"repro/internal/resultstore"
)

// WorkerHandler returns the HTTP surface of a sweep worker:
//
//	POST /job      wire-encoded job in, Measurement JSON out
//	GET  /healthz  liveness probe (the Remote backend's re-probe target)
//
// cmd/wbserve mounts it under -worker; tests mount it on an httptest
// server to get an in-process worker.  When reg is non-nil it receives
// the worker-side series: dispatch_worker_jobs_total,
// dispatch_worker_job_errors_total, dispatch_worker_job_microseconds, and
// every finished machine's sim_* counters.
//
// Every measurement response carries an integrity checksum over the job's
// canonical machconf hash and the exact payload bytes (ChecksumHeader);
// the Remote dispatcher rejects a response whose payload no longer matches
// its checksum, so corruption in flight reads as a worker fault, not data.
//
// Status codes distinguish the caller's fault from the job's: 400 for a
// body that does not decode to a job (or names an unknown benchmark),
// 422 for a well-formed job whose machine fails simulator validation.
// Both are permanent — the Remote backend does not retry them.  A worker
// that is starting or draining answers 503 (transient; retry elsewhere).
//
// The handler is always ready; a worker with a real lifecycle (wbserve's
// graceful shutdown) uses WorkerHandlerState with a shared Readiness.
func WorkerHandler(reg *metrics.Registry) http.Handler {
	return WorkerHandlerState(reg, nil)
}

// WorkerHandlerState is WorkerHandler with an explicit readiness state:
// /healthz reports it (200 only when ready) and POST /job refuses work
// with 503 while the worker is starting or draining.  A nil state means
// always ready.
func WorkerHandlerState(reg *metrics.Registry, rdy *Readiness) http.Handler {
	var (
		jobs    *metrics.Counter
		jobErrs *metrics.Counter
		latency *metrics.Histogram
	)
	if reg != nil {
		jobs = reg.Counter("dispatch_worker_jobs_total")
		jobErrs = reg.Counter("dispatch_worker_job_errors_total")
		latency = reg.Histogram("dispatch_worker_job_microseconds")
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if !rdy.IsReady() {
			http.Error(w, rdy.State(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /job", func(w http.ResponseWriter, r *http.Request) {
		if !rdy.IsReady() {
			// Not a job error: the job is fine, this machine is not.
			http.Error(w, rdy.State(), http.StatusServiceUnavailable)
			return
		}
		if jobs != nil {
			jobs.Inc()
		}
		var wj wireJob
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wj); err != nil {
			workerError(w, jobErrs, http.StatusBadRequest, "invalid job JSON: %v", err)
			return
		}
		job, err := decodeJob(wj)
		if err != nil {
			workerError(w, jobErrs, http.StatusBadRequest, "%v", err)
			return
		}
		start := time.Now()
		m, err := Execute(job, reg)
		if err != nil {
			status := http.StatusUnprocessableEntity
			if errors.Is(err, ErrUnknownBenchmark) {
				status = http.StatusBadRequest
			}
			workerError(w, jobErrs, status, "%v", err)
			return
		}
		if latency != nil {
			latency.Observe(uint64(time.Since(start).Microseconds()))
		}
		payload, err := json.Marshal(m)
		if err != nil { // scalars only; cannot happen
			workerError(w, jobErrs, http.StatusInternalServerError, "%v", err)
			return
		}
		// The job arrived as a canonical machconf blob, so its hash always
		// exists; attest the payload with it.
		if hash, err := machconf.Hash(job.Cfg); err == nil {
			w.Header().Set(ChecksumHeader, resultstore.Checksum(hash, payload))
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(payload)
	})
	return mux
}

func workerError(w http.ResponseWriter, errCounter *metrics.Counter, status int, format string, args ...any) {
	if errCounter != nil {
		errCounter.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
