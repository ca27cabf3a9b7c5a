package main

// The authenticated admin surface: the store and queue maintenance
// operations that were library-only before — Verify, EvictHash, Prune,
// scrub reports, journal depth — exposed over HTTP for runbooks and
// automation.  Every handler here sits behind requireAdmin (server.go):
// bearer token required, admin bit required, 401/403 otherwise.  The
// cache-poisoning and disk-fault runbooks in docs/SERVING.md are written
// as curl against these endpoints.

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/resultstore"
)

// handleStoreVerify re-validates every stored entry (POST /admin/store/verify)
// in one synchronous scrub pass: corrupt copies are quarantined and
// repaired from healthy replicas; an entry with no healthy copy left (the
// only case with one directory) re-simulates on demand.
func (s *server) handleStoreVerify(w http.ResponseWriter, _ *http.Request) {
	start := time.Now()
	ok, corrupt, err := s.store.Verify()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "verify: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":         ok,
		"corrupt":    corrupt,
		"elapsed_ms": time.Since(start).Milliseconds(),
	})
}

// handleStoreEvict removes every entry for one machconf hash
// (POST /admin/store/evict, body {"config_hash":"..."}) — the targeted
// response when one configuration's results are suspect.
func (s *server) handleStoreEvict(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ConfigHash string `json:"config_hash"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<12))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if req.ConfigHash == "" {
		httpError(w, http.StatusBadRequest, "missing required field %q", "config_hash")
		return
	}
	removed, err := s.store.EvictHash(req.ConfigHash)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "evict: %v", err)
		return
	}
	s.logf("wbserve: admin evicted %d entries for config hash %s", removed, req.ConfigHash)
	writeJSON(w, http.StatusOK, map[string]any{
		"config_hash": req.ConfigHash,
		"removed":     removed,
	})
}

// handleStorePrune bounds the disk tier (POST /admin/store/prune, body
// {"max_entries": N}): oldest entries beyond the bound are removed — the
// garbage-collection step of the sizing guide.
func (s *server) handleStorePrune(w http.ResponseWriter, r *http.Request) {
	var req struct {
		MaxEntries *int `json:"max_entries"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<12))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if req.MaxEntries == nil || *req.MaxEntries < 0 {
		httpError(w, http.StatusBadRequest, "max_entries must be present and non-negative")
		return
	}
	removed, err := s.store.Prune(*req.MaxEntries)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "prune: %v", err)
		return
	}
	s.logf("wbserve: admin pruned %d entries (bound %d)", removed, *req.MaxEntries)
	writeJSON(w, http.StatusOK, map[string]any{
		"max_entries": *req.MaxEntries,
		"removed":     removed,
	})
}

// storeStatusView is GET /admin/store/status: tier sizes and the
// quarantine count, and — for a store of two or more replicas —
// per-replica figures and the last scrub pass.
type storeStatusView struct {
	Replicated  bool                      `json:"replicated"`
	DiskEntries int                       `json:"disk_entries"`
	DiskBytes   int64                     `json:"disk_bytes"`
	MemEntries  int                       `json:"mem_entries"`
	Quarantined int                       `json:"quarantined,omitempty"`
	Replicas    []resultstore.ReplicaStat `json:"replicas,omitempty"`
	LastScrub   *scrubView                `json:"last_scrub,omitempty"`
}

type scrubView struct {
	resultstore.ScrubReport
	When   time.Time `json:"when"`
	Passes int       `json:"passes"`
}

func (s *server) handleStoreStatus(w http.ResponseWriter, _ *http.Request) {
	var v storeStatusView
	v.DiskEntries, v.DiskBytes, v.MemEntries = s.store.Stats()
	v.Quarantined = s.store.Quarantined()
	if len(s.store.Dirs()) > 1 {
		v.Replicated = true
		v.Replicas = s.store.ReplicaStats()
		if rep, when, passes := s.store.LastScrub(); passes > 0 {
			v.LastScrub = &scrubView{ScrubReport: rep, When: when, Passes: passes}
		}
	}
	writeJSON(w, http.StatusOK, v)
}

// handleQueueStatus is GET /admin/queue/status: backlog depth (total and
// per tenant), journal size, and run accounting — the figures the
// autoscale hint is computed from, exposed for operators.
func (s *server) handleQueueStatus(w http.ResponseWriter, _ *http.Request) {
	depth := s.queue.Depth()
	runs, skipped := s.queue.Loaded()
	writeJSON(w, http.StatusOK, map[string]any{
		"depth":           depth,
		"depth_by_tenant": s.queue.DepthByTenant(),
		"journal_bytes":   s.queue.JournalBytes(),
		"replayed_runs":   runs,
		"skipped_lines":   skipped,
		"autoscale_hint":  (depth + autoscaleJobsPerWorker - 1) / autoscaleJobsPerWorker,
	})
}
