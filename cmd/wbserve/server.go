package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/jobqueue"
	"repro/internal/machconf"
	"repro/internal/metrics"
	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// tenantHeader attributes a request to a tenant for rate limiting, quotas,
// and per-tenant metrics.  Absent means tenant.DefaultName.
const tenantHeader = "X-WB-Tenant"

// autoscaleJobsPerWorker is the queue depth one additional worker process
// is assumed to absorb; /metrics divides the backlog by it to produce
// wbserve_autoscale_workers_hint.
const autoscaleJobsPerWorker = 8

// RunRequest is the JSON body of POST /run.  Zero-valued fields take the
// paper's baseline (Tables 1 and 2), mirroring the wbsim flag defaults, so
// {"bench":"li"} is a complete request.
type RunRequest struct {
	// Bench names a benchmark from the suite (wbsim -list).  Exactly one of
	// Bench and Benches is required.
	Bench string `json:"bench"`
	// Benches sweeps several benchmarks under one machine as a single run —
	// the sweep is queued as one durable unit with one run id.
	Benches []string `json:"benches,omitempty"`
	// Async, when true, answers 202 immediately with the run document;
	// progress streams on GET /run/{id}/events and results land on GET
	// /run/{id}.  False (the default) blocks until the sweep completes.
	Async bool `json:"async,omitempty"`
	// N is the dynamic instruction count (default one million).  The
	// first quarter is warm-up and excluded from the measurement.
	N uint64 `json:"n,omitempty"`
	// Depth and Width shape the write buffer (entries × words per entry).
	Depth int `json:"depth,omitempty"`
	Width int `json:"width,omitempty"`
	// RetireAt is the retire-at high-water mark; AgingTimeout adds the
	// aging clause (cycles, 0 = off).
	RetireAt     int    `json:"retire_at,omitempty"`
	AgingTimeout uint64 `json:"aging_timeout,omitempty"`
	// Hazard is the load-hazard policy: flush-full, flush-partial,
	// flush-item-only, or read-from-WB.
	Hazard string `json:"hazard,omitempty"`
	// L1Size, L2Lat, L2Size, MemLat configure the hierarchy; L2Size 0 is
	// the paper's perfect L2.
	L1Size int    `json:"l1_size,omitempty"`
	L2Lat  uint64 `json:"l2_lat,omitempty"`
	L2Size int    `json:"l2_size,omitempty"`
	MemLat uint64 `json:"mem_lat,omitempty"`
	// WriteCache, when > 0, swaps the write buffer for a write cache of
	// that depth; IssueWidth > 1 enables the superscalar extension.
	WriteCache int `json:"write_cache,omitempty"`
	IssueWidth int `json:"issue_width,omitempty"`
	// Config, when present, is a complete machconf machine description (as
	// produced by wbsim -dump-config or machconf.Encode).  It replaces
	// every machine-shaping scalar above — mixing the two is an error —
	// and is the only way to request a registry-registered custom policy.
	Config json.RawMessage `json:"config,omitempty"`
}

// hasScalarConfig reports whether any machine-shaping scalar field was set.
func (r RunRequest) hasScalarConfig() bool {
	return r.Depth != 0 || r.Width != 0 || r.RetireAt != 0 || r.AgingTimeout != 0 ||
		r.Hazard != "" || r.L1Size != 0 || r.L2Lat != 0 || r.L2Size != 0 ||
		r.MemLat != 0 || r.WriteCache != 0 || r.IssueWidth != 0
}

// benchList returns the requested benchmark names (Bench or Benches),
// post-normalize.
func (r RunRequest) benchList() []string {
	if len(r.Benches) > 0 {
		return r.Benches
	}
	return []string{r.Bench}
}

// normalize fills baseline defaults so equivalent requests share one store
// key, and validates ranges the simulator cannot (the instruction cap).
func (r RunRequest) normalize(maxN uint64) (RunRequest, error) {
	if r.Bench != "" && len(r.Benches) > 0 {
		return r, fmt.Errorf("bench and benches are mutually exclusive")
	}
	if r.Bench == "" && len(r.Benches) == 0 {
		return r, fmt.Errorf("missing required field %q", "bench")
	}
	seen := map[string]bool{}
	for _, b := range r.Benches {
		if b == "" {
			return r, fmt.Errorf("benches contains an empty name")
		}
		if seen[b] {
			return r, fmt.Errorf("benches lists %q twice", b)
		}
		seen[b] = true
	}
	if r.N == 0 {
		r.N = 1_000_000
	}
	if r.N > maxN {
		return r, fmt.Errorf("n %d exceeds the server cap of %d", r.N, maxN)
	}
	if len(r.Config) > 0 {
		if r.hasScalarConfig() {
			return r, fmt.Errorf("config blob and machine fields are mutually exclusive")
		}
		return r, nil
	}
	if r.Depth == 0 {
		r.Depth = 4
	}
	if r.Width == 0 {
		r.Width = 4
	}
	if r.RetireAt == 0 {
		r.RetireAt = 2
	}
	if r.Hazard == "" {
		r.Hazard = core.FlushFull.String()
	}
	if r.L1Size == 0 {
		r.L1Size = 8 << 10
	}
	if r.L2Lat == 0 {
		r.L2Lat = 6
	}
	if r.MemLat == 0 {
		r.MemLat = 25
	}
	return r, nil
}

// errInvalidConfig marks a request whose JSON was well-formed but whose
// machine fails sim.Config.Validate — the client described an impossible
// configuration, so /run answers 422, not 400 (malformed request) or 500
// (server fault).
var errInvalidConfig = errors.New("invalid machine configuration")

// config builds the simulator configuration — decoding the machconf blob
// when one was sent, assembling the scalars otherwise — and relies on
// machconf.Validate for the microarchitectural invariants; validation
// failures are wrapped in errInvalidConfig.
func (r RunRequest) config() (sim.Config, error) {
	if len(r.Config) > 0 {
		cfg, err := machconf.Decode(r.Config)
		if err != nil {
			return sim.Config{}, err
		}
		if err := machconf.Validate(cfg); err != nil {
			return sim.Config{}, fmt.Errorf("%w: %v", errInvalidConfig, err)
		}
		return cfg, nil
	}
	hazard, ok := machconf.HazardByName(r.Hazard)
	if !ok {
		return sim.Config{}, fmt.Errorf("unknown hazard policy %q", r.Hazard)
	}
	cfg := sim.Baseline().
		WithDepth(r.Depth).
		WithRetire(core.RetireAt{N: r.RetireAt, Timeout: r.AgingTimeout}).
		WithHazard(hazard).
		WithL1Size(r.L1Size).
		WithL2Latency(r.L2Lat).
		WithMemLat(r.MemLat).
		WithIssueWidth(r.IssueWidth)
	cfg.WB.WordsPerEntry = r.Width
	if r.L2Size > 0 {
		cfg = cfg.WithL2(r.L2Size)
	}
	if r.WriteCache > 0 {
		cfg = cfg.WithWriteCache(r.WriteCache)
	}
	if err := machconf.Validate(cfg); err != nil {
		return sim.Config{}, fmt.Errorf("%w: %v", errInvalidConfig, err)
	}
	return cfg, nil
}

// label renders the request as a compact descriptor: the non-baseline
// scalars, or the canonical hash prefix when the machine arrived as a blob.
func (r RunRequest) label(hash string) string {
	if len(r.Config) > 0 {
		return "machconf:" + hash[:12]
	}
	return fmt.Sprintf("depth=%d,width=%d,retire=%d,hazard=%s", r.Depth, r.Width, r.RetireAt, r.Hazard)
}

// RunResponse is the JSON reply of POST /run: the paper's measurement for
// one (benchmark, configuration) pair.
type RunResponse struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`
	// Instructions and Cycles cover the measured (post-warm-up) window.
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	CPI          float64 `json:"cpi"`
	// StallPct carries the paper's headline metric per category plus the
	// total, as a percentage of execution time.
	StallPct  map[string]float64 `json:"stall_pct"`
	L1HitRate float64            `json:"l1_hit_rate"`
	WBHitRate float64            `json:"wb_hit_rate"`
	L2HitRate float64            `json:"l2_hit_rate"`
	Loads     uint64             `json:"loads"`
	Stores    uint64             `json:"stores"`
	// Retirements vs FlushedEntries splits L2 write traffic into
	// autonomous drains and hazard-forced flushes.
	Retirements    uint64 `json:"retirements"`
	FlushedEntries uint64 `json:"flushed_entries"`
	WBReadHits     uint64 `json:"wb_read_hits"`
	HazardEvents   uint64 `json:"hazard_events"`
	// Cached reports whether the measurement was answered from the result
	// store without waiting for a simulation.
	Cached bool `json:"cached"`
}

func responseFrom(m experiment.Measurement) *RunResponse {
	c := m.C
	stall := map[string]float64{"total": c.TotalStallPct()}
	for k := range c.Stalls {
		kind := stats.StallKind(k)
		if c.Stalls[k] > 0 || kind <= stats.LoadHazard {
			stall[kind.String()] = c.StallPct(kind)
		}
	}
	return &RunResponse{
		Bench:          m.Bench,
		Config:         m.Label,
		Instructions:   c.Instructions,
		Cycles:         c.Cycles,
		CPI:            c.CPI(),
		StallPct:       stall,
		L1HitRate:      m.L1Hit,
		WBHitRate:      m.WBHit,
		L2HitRate:      m.L2Hit,
		Loads:          c.Loads,
		Stores:         c.Stores,
		Retirements:    c.Retirements,
		FlushedEntries: c.FlushedEntries,
		WBReadHits:     c.WBReadHits,
		HazardEvents:   c.HazardEvents,
	}
}

// serverConfig assembles a server; zero values select the in-memory
// single-process behaviour wbserve has always had.
type serverConfig struct {
	// CacheSize bounds the result store's in-memory tier; must be >= 1 (a
	// zero-entry cache would turn every repeated request into a disk read or
	// a re-simulation, which is never what an operator means — use -maxn to
	// bound work, or simply accept the 1-entry minimum).
	CacheSize int
	// MaxN caps per-request instruction counts.
	MaxN uint64
	// Worker additionally serves POST /job for dispatch coordinators.
	Worker bool
	// StoreDir is the durable result-store root — or a comma-separated
	// list of roots, which opens a self-healing replicated store; empty
	// keeps results in memory only.
	StoreDir string
	// ScrubInterval starts the replicated store's background scrubber
	// (ignored for a single-directory or memory-only store).
	ScrubInterval time.Duration
	// Keyring, when non-nil, turns bearer-token authentication on: POST
	// /run requires a valid token and the /admin surface additionally
	// requires the admin bit.  Nil keeps identity header-declared and the
	// admin surface disabled.
	Keyring *tenant.Keyring
	// WorkerAddrs, when non-empty, routes simulations through a
	// dispatch.Remote pool over these addresses instead of the in-process
	// local backend (still wrapped with the result store).  Supervisor mode
	// preassigns one address per worker slot here; addresses with no
	// process yet are simply unhealthy until the supervisor starts them,
	// and with every address down execution falls back in-process.
	WorkerAddrs []string
	// QueuePath is the durable job-queue journal; empty keeps the queue in
	// memory.  A durable queue requires a durable store: done markers mean
	// "the result is in the store", which a memory-only store cannot honour
	// across a restart.
	QueuePath string
	// Dispatchers is the number of simulation goroutines draining the
	// queue; values below 1 select runtime.NumCPU().
	Dispatchers int
	// TenantDefaults and TenantOverrides configure admission control
	// (tenant.NewRegistry).
	TenantDefaults  tenant.Limits
	TenantOverrides map[string]tenant.Limits
	// Logf receives operational events; nil discards them.
	Logf func(format string, args ...any)
	// testBackend, when non-nil, wraps the fully assembled backend —
	// Cached(Local or Remote) — before the dispatcher pool starts.  Local
	// execution cannot fail for an admitted config, so tests use this seam
	// to exercise the dispatcher's failure and not-stored paths behind the
	// real queue/store/registry stack.  Unexported: not reachable from flags.
	testBackend func(dispatch.Backend) dispatch.Backend
}

// server ties the HTTP surface to the sweep platform: the shared result
// store (memory tier + optional durable tier), the durable job queue and
// its dispatcher pool, per-tenant admission control, the live run registry
// behind GET /run/{id} and its SSE feed, and a readiness state that
// sequences graceful shutdown (drain begins → /healthz flips to 503 so
// dispatchers stop routing here → new work is refused → in-flight requests
// finish under http.Server.Shutdown).
type server struct {
	reg      *metrics.Registry
	maxN     uint64
	worker   bool
	ready    *dispatch.Readiness
	inflight atomic.Int64

	store   resultstore.Interface
	queue   *jobqueue.Queue
	tenants *tenant.Registry
	keys    *tenant.Keyring
	runs    *runRegistry
	remote  *dispatch.Remote // nil unless WorkerAddrs routed through a pool
	backend dispatch.Backend

	logf   func(format string, args ...any)
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newServer(cfg serverConfig) (*server, error) {
	if cfg.CacheSize < 1 {
		return nil, fmt.Errorf("cachesize must be at least 1, got %d (the in-memory result tier needs room for one entry; use -store for durability, -maxn to bound work)", cfg.CacheSize)
	}
	if cfg.QueuePath != "" && cfg.StoreDir == "" {
		return nil, fmt.Errorf("-queue requires -store: queue done markers promise the result is durably stored, which a memory-only store cannot honour across a restart")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	reg := metrics.NewRegistry()
	store, err := resultstore.OpenSpec(cfg.StoreDir, resultstore.Options{
		MemoryEntries: cfg.CacheSize,
		Metrics:       reg,
		Logf:          logf,
		ScrubInterval: cfg.ScrubInterval,
	})
	if err != nil {
		return nil, err
	}
	queue, err := jobqueue.Open(cfg.QueuePath, reg, logf)
	if err != nil {
		store.Close()
		return nil, err
	}
	var inner dispatch.Backend = &dispatch.Local{Metrics: reg}
	var remote *dispatch.Remote
	if len(cfg.WorkerAddrs) > 0 {
		remote, err = dispatch.NewRemote(cfg.WorkerAddrs, dispatch.RemoteOptions{
			FallbackLocal:   true,
			QuarantineAfter: 2,
			ProbeInterval:   500 * time.Millisecond,
			Metrics:         reg,
			Logf:            logf,
		})
		if err != nil {
			store.Close()
			queue.Close()
			return nil, err
		}
		inner = remote
	}
	s := &server{
		reg:     reg,
		maxN:    cfg.MaxN,
		worker:  cfg.Worker,
		ready:   dispatch.NewReadiness(),
		store:   store,
		queue:   queue,
		tenants: tenant.NewRegistry(cfg.TenantDefaults, cfg.TenantOverrides, reg),
		keys:    cfg.Keyring,
		runs:    newRunRegistry(),
		remote:  remote,
		backend: dispatch.NewCached(inner, store, reg),
		logf:    logf,
	}
	if cfg.testBackend != nil {
		s.backend = cfg.testBackend(s.backend)
	}
	// Recovery: re-register every journaled run (so GET /run/{id} answers
	// across restarts), then rebuild the pending FIFO from jobs whose
	// results are in neither the journal's done set nor the store.
	for _, run := range queue.Runs() {
		s.runs.register(run, s.storeHas)
	}
	if resumed := queue.Resume(s.storeHas); resumed > 0 {
		logf("wbserve: resuming %d journaled jobs", resumed)
	}
	n := cfg.Dispatchers
	if n < 1 {
		n = runtime.NumCPU()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go s.dispatchLoop(ctx)
	}
	// Construction is cheap and the process serves nothing until the
	// listener is up, so the server is born ready; main flips it to
	// draining on SIGINT/SIGTERM.
	s.ready.SetReady()
	return s, nil
}

// Close stops the dispatcher pool and closes the queue journal.  In-flight
// jobs are abandoned without done markers, so the journal re-delivers them
// on the next start — at-least-once, made harmless by determinism and the
// store.
func (s *server) Close() {
	s.cancel()
	s.wg.Wait()
	_ = s.queue.Close()
	if s.remote != nil {
		s.remote.Close()
	}
	_ = s.store.Close() // stops the replicated store's scrubber
}

// storeHas is the result store's membership test, threaded into queue
// submission, resume, and run registration as the "already paid for"
// predicate.
func (s *server) storeHas(key string) bool {
	_, ok := s.store.Get(key)
	return ok
}

// dispatchLoop is one simulation worker: dequeue, execute through the
// store-backed backend, journal the done marker, fan completion out to
// every waiting run.  The store write happens inside backend.Run (the
// Cached wrapper), strictly before the done marker — the ordering the
// queue's recovery protocol trusts.  A job whose store write failed
// (dispatch.ErrResultNotStored) still completes its runs — the measurement
// is in hand and the memory tier serves it for this process's lifetime —
// but gets NO done marker: the journal's documented invariant is "done =
// the result is durably in the store", and replay re-runs the job once the
// disk recovers.  Such a job, like a failed one, is released from the
// queue's in-flight set so a resubmission can retry it.
func (s *server) dispatchLoop(ctx context.Context) {
	defer s.wg.Done()
	dispatched := s.reg.Counter("wbserve_dispatched_jobs_total")
	failures := s.reg.Counter("wbserve_job_failures_total")
	unstored := s.reg.Counter("wbserve_store_put_failures_total")
	for {
		job, err := s.queue.Dequeue(ctx)
		if err != nil {
			return
		}
		dispatched.Inc()
		start := time.Now()
		var m dispatch.Measurement
		cfg, err := machconf.Decode(job.Config)
		if err == nil {
			m, err = s.backend.Run(ctx, dispatch.Job{Bench: job.Bench, Label: job.Label, Cfg: cfg, N: job.N})
		}
		stored := err == nil
		if !stored {
			s.queue.Release(job.Key)
		}
		if errors.Is(err, dispatch.ErrResultNotStored) {
			unstored.Inc()
			s.logf("wbserve: job %s executed but was not durably stored (no done marker; it re-runs after a restart): %v", job.Key, err)
			err = nil
		}
		if err != nil {
			if ctx.Err() != nil {
				// Shutdown took the job down with it; no done marker, so the
				// journal re-delivers it on the next start.
				return
			}
			// Jobs are validated at admission and deterministic, so this is
			// exceptional (disk full, config skew).  Leave the journal honest
			// — no done marker — and record a distinct *failure* on every
			// waiting run: waiters are released, but the job is not counted
			// done, so the ledger never claims a result it does not have and
			// a resubmission (or the post-restart replay) retries it.
			failures.Inc()
			s.logf("wbserve: job %s failed: %v", job.Key, err)
			s.runs.fail(job.Key, experiment.ProgressEvent{Bench: job.Bench, Label: job.Label})
			continue
		}
		if stored {
			_ = s.queue.Done(job.Key)
		}
		jt := time.Since(start)
		s.reg.Counter("experiment_jobs_total").Inc()
		s.reg.Counter("experiment_instructions_total").Add(m.C.Instructions)
		s.reg.Histogram("experiment_job_microseconds").Observe(uint64(jt.Microseconds()))
		tn := job.Tenant
		if tn == "" {
			tn = tenant.DefaultName
		}
		s.reg.Counter(metrics.Label("wbserve_tenant_jobs_total", "tenant", tn)).Inc()
		s.runs.complete(job.Key, experiment.ProgressEvent{
			Bench:        job.Bench,
			Label:        job.Label,
			Instructions: m.C.Instructions,
			Cycles:       m.C.Cycles,
			JobTime:      time.Since(start),
		})
	}
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /experiments", s.instrument("/experiments", s.requireAuth(s.handleExperiments)))
	mux.HandleFunc("POST /run", s.instrument("/run", s.refuseWhenDraining(s.handleRun)))
	mux.HandleFunc("GET /run/{id}", s.instrument("/run/{id}", s.handleRunStatus))
	mux.HandleFunc("GET /run/{id}/events", s.instrument("/run/{id}/events", s.handleRunEvents))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.requireAuth(s.handleMetrics)))
	// The authenticated admin surface (admin.go): store maintenance and
	// queue introspection, admin-bit tenants only.
	mux.HandleFunc("POST /admin/store/verify", s.instrument("/admin/store/verify", s.requireAdmin(s.handleStoreVerify)))
	mux.HandleFunc("POST /admin/store/evict", s.instrument("/admin/store/evict", s.requireAdmin(s.handleStoreEvict)))
	mux.HandleFunc("POST /admin/store/prune", s.instrument("/admin/store/prune", s.requireAdmin(s.handleStorePrune)))
	mux.HandleFunc("GET /admin/store/status", s.instrument("/admin/store/status", s.requireAdmin(s.handleStoreStatus)))
	mux.HandleFunc("GET /admin/queue/status", s.instrument("/admin/queue/status", s.requireAdmin(s.handleQueueStatus)))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Readiness, not liveness: a draining (or starting) process
		// answers 503 so load balancers and the dispatch re-prober route
		// around it, with the state name as the body for operators.
		if !s.ready.IsReady() {
			http.Error(w, s.ready.State(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	}))
	if s.worker {
		// The sweep-worker surface: POST /job runs one wire-encoded
		// matrix job for a dispatch.Remote coordinator, feeding the same
		// registry /metrics exports.  The shared readiness state makes
		// the worker refuse jobs (503 → dispatcher retries elsewhere)
		// once draining begins.
		jobs := dispatch.WorkerHandlerState(s.reg, s.ready)
		mux.Handle("POST /job", s.instrument("/job", jobs.ServeHTTP))
	}
	// Profiles and expvar can read process internals and burn CPU; with a
	// keyring configured they demand a token like every other read surface.
	mux.HandleFunc("/debug/pprof/", s.requireAuth(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", s.requireAuth(pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", s.requireAuth(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", s.requireAuth(pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", s.requireAuth(pprof.Trace))
	mux.Handle("/debug/vars", s.requireAuth(expvar.Handler().ServeHTTP))
	return mux
}

// refuseWhenDraining gates a work-accepting endpoint on readiness: during
// shutdown, in-flight requests finish but new work gets an immediate 503
// (transient, safe to retry elsewhere) instead of racing the listener.
func (s *server) refuseWhenDraining(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.IsReady() {
			httpError(w, http.StatusServiceUnavailable, "server is %s", s.ready.State())
			return
		}
		h(w, r)
	}
}

// instrument wraps a handler with request counting, latency tracking, and
// the shared in-flight gauge.
func (s *server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	requests := s.reg.Counter(metrics.Label("wbserve_requests_total", "path", path))
	latency := s.reg.Histogram(metrics.Label("wbserve_request_microseconds", "path", path))
	inflight := s.reg.Gauge("wbserve_inflight_requests")
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		requests.Inc()
		inflight.Set(float64(s.inflight.Add(1)))
		defer func() {
			inflight.Set(float64(s.inflight.Add(-1)))
			latency.Observe(uint64(time.Since(start).Microseconds()))
		}()
		h(w, r)
	}
}

func (s *server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	type item struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []item
	for _, e := range experiment.All() {
		out = append(out, item{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

// identify resolves the caller's tenant identity.  With no keyring the
// identity is header-declared (the platform's historical honest
// multi-tenancy).  With a keyring, a valid bearer token is required —
// missing or invalid answers 401 — and an X-WB-Tenant header that
// contradicts the token's tenant answers 403 (claiming someone else's
// name with your own valid token is a permission problem, not an
// authentication one).
func (s *server) identify(r *http.Request) (tenant.Identity, int, string) {
	claimed := r.Header.Get(tenantHeader)
	if !s.keys.Enabled() {
		if claimed == "" {
			claimed = tenant.DefaultName
		}
		return tenant.Identity{Name: claimed}, 0, ""
	}
	tok := tenant.BearerToken(r.Header.Get("Authorization"))
	if tok == "" {
		return tenant.Identity{}, http.StatusUnauthorized, "missing bearer token (Authorization: Bearer <token>)"
	}
	id, ok := s.keys.Authenticate(tok)
	if !ok {
		return tenant.Identity{}, http.StatusUnauthorized, "invalid bearer token"
	}
	if claimed != "" && claimed != id.Name {
		return tenant.Identity{}, http.StatusForbidden,
			fmt.Sprintf("token belongs to tenant %q, not %q", id.Name, claimed)
	}
	return id, 0, ""
}

// refuseUnidentified answers an identify failure, with the RFC 6750
// challenge header on 401s.
func refuseUnidentified(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusUnauthorized {
		w.Header().Set("WWW-Authenticate", `Bearer realm="wbserve"`)
	}
	httpError(w, status, "%s", msg)
}

// requireAuth gates a read surface on authentication: with a keyring
// configured, any valid bearer token passes (no admin bit needed); without
// one the handler stays open, same as it always was.  Run documents and
// results are content-addressed — their ids are derivable from the request
// that created them — so with -authkeys every surface that can return
// stored results or drive server work (metrics, profiles) demands a token,
// not just POST /run.  /healthz stays open: load balancers do not carry
// credentials, and readiness leaks nothing.
func (s *server) requireAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.keys.Enabled() {
			if _, status, msg := s.identify(r); status != 0 {
				refuseUnidentified(w, status, msg)
				return
			}
		}
		h(w, r)
	}
}

// lookupRun authenticates the caller (when a keyring is configured),
// resolves {id} to a registered run, and enforces tenant scope: only the
// owning tenant or an admin may read a run document or its event stream.
// Authentication comes BEFORE the lookup, so anonymous callers always see
// 401 and learn nothing about which run ids exist.  Writes the refusal and
// reports false when the caller may not proceed.
func (s *server) lookupRun(w http.ResponseWriter, r *http.Request) (*runState, bool) {
	var id tenant.Identity
	if s.keys.Enabled() {
		var status int
		var msg string
		id, status, msg = s.identify(r)
		if status != 0 {
			refuseUnidentified(w, status, msg)
			return nil, false
		}
	}
	st, ok := s.runs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return nil, false
	}
	if s.keys.Enabled() && !id.Admin && st.run.Tenant != id.Name {
		httpError(w, http.StatusForbidden, "run %s belongs to tenant %q", st.run.ID, st.run.Tenant)
		return nil, false
	}
	return st, true
}

// requireAdmin gates the /admin surface: 403 when authentication is off
// entirely (an unauthenticated admin API is not an API, it is an incident),
// 401 for missing/invalid tokens, 403 for authenticated tenants without
// the admin bit.
func (s *server) requireAdmin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.keys.Enabled() {
			httpError(w, http.StatusForbidden, "admin API disabled: start wbserve with -authkeys to enable it")
			return
		}
		id, status, msg := s.identify(r)
		if status != 0 {
			refuseUnidentified(w, status, msg)
			return
		}
		if !id.Admin {
			httpError(w, http.StatusForbidden, "tenant %q lacks the admin bit", id.Name)
			return
		}
		h(w, r)
	}
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	id, status, msg := s.identify(r)
	if status != 0 {
		refuseUnidentified(w, status, msg)
		return
	}
	tn := id.Name
	if !s.tenants.Allow(tn) {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "tenant %q is over its request rate", tn)
		return
	}
	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	req, err := req.normalize(s.maxN)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	benches := req.benchList()
	for _, name := range benches {
		if _, ok := workload.ByName(name); !ok {
			httpError(w, http.StatusBadRequest, "unknown benchmark %q", name)
			return
		}
	}
	cfg, err := req.config()
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errInvalidConfig) {
			status = http.StatusUnprocessableEntity
		}
		httpError(w, status, "%v", err)
		return
	}
	hash, err := machconf.Hash(cfg)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	blob, err := machconf.Encode(cfg)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}

	label := req.label(hash)
	jobs := make([]jobqueue.Job, 0, len(benches))
	for _, name := range benches {
		jobs = append(jobs, jobqueue.Job{
			Bench:  name,
			Label:  label,
			N:      req.N,
			Config: blob,
			Key:    resultstore.Key(name, req.N, hash),
			Tenant: tn,
		})
	}

	// Fast path for the classic synchronous single-job request: a store hit
	// answers without touching the queue (and keeps the historical
	// wbserve_cache_* series meaningful — hits never simulate, misses do).
	if !req.Async && len(jobs) == 1 {
		if payload, ok := s.store.Get(jobs[0].Key); ok {
			s.reg.Counter("wbserve_cache_hits_total").Inc()
			resp, err := s.responseFromPayload(payload, jobs[0])
			if err != nil {
				httpError(w, http.StatusInternalServerError, "%v", err)
				return
			}
			resp.Cached = true
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}

	// Admission: the pending-work quota counts jobs not yet known done to
	// the journal (store-answered duplicates are forgiven at Submit).
	want := 0
	for _, j := range jobs {
		if !s.queue.IsDone(j.Key) {
			want++
		}
	}
	if !s.tenants.AdmitPending(tn, s.queue.DepthByTenant()[tn], want) {
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusTooManyRequests, "tenant %q is over its pending-work quota", tn)
		return
	}

	run := jobqueue.Run{ID: runID(tn, jobs), Tenant: tn, Jobs: jobs}
	st := s.runs.register(run, s.storeHas)
	if _, err := s.queue.Submit(run, s.storeHas); err != nil {
		httpError(w, http.StatusInternalServerError, "enqueueing run: %v", err)
		return
	}
	if !req.Async && len(jobs) == 1 {
		s.reg.Counter("wbserve_cache_misses_total").Inc()
	}

	if req.Async {
		writeJSON(w, http.StatusAccepted, s.runDoc(st, false))
		return
	}
	select {
	case <-st.finished:
	case <-r.Context().Done():
		return // client gave up; the sweep keeps draining and the store keeps the results
	}
	if len(jobs) == 1 {
		payload, ok := s.store.Get(jobs[0].Key)
		if !ok {
			httpError(w, http.StatusInternalServerError, "job %s completed without a stored result (see wbserve_job_failures_total)", jobs[0].Key)
			return
		}
		resp, err := s.responseFromPayload(payload, jobs[0])
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	writeJSON(w, http.StatusOK, s.runDoc(st, true))
}

// responseFromPayload decodes a stored (label-stripped) measurement and
// re-applies the requesting sweep's presentation label.
func (s *server) responseFromPayload(payload []byte, job jobqueue.Job) (*RunResponse, error) {
	var m experiment.Measurement
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("decoding stored result %s: %w", job.Key, err)
	}
	m.Label = job.Label
	if m.Bench == "" {
		m.Bench = job.Bench
	}
	return responseFrom(m), nil
}

// runJobView is one job's row in the run document.  Done and Failed are
// mutually exclusive; a failed job has no stored result and no journal done
// marker, so it retries on resubmission or after a restart.
type runJobView struct {
	Bench  string `json:"bench"`
	Label  string `json:"label,omitempty"`
	N      uint64 `json:"n"`
	Key    string `json:"key"`
	Done   bool   `json:"done"`
	Failed bool   `json:"failed,omitempty"`
}

// runView is the run document: POST /run's 202 body and GET /run/{id}'s
// response.  Results, when requested, are rebuilt from the store in job
// order (null for jobs still pending), so the document is byte-identical
// no matter which process — or which side of a kill -9 — serves it.
type runView struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	// Failed counts jobs whose last attempt errored.  They are not Done —
	// Complete stays false — and they rerun on resubmission or restart.
	Failed    int            `json:"failed,omitempty"`
	Complete  bool           `json:"complete"`
	EventsURL string         `json:"events_url"`
	Jobs      []runJobView   `json:"jobs"`
	Results   []*RunResponse `json:"results,omitempty"`
}

func (s *server) runDoc(st *runState, withResults bool) runView {
	done, failed := st.doneKeys()
	v := runView{
		ID:        st.run.ID,
		Tenant:    st.run.Tenant,
		Total:     len(st.run.Jobs),
		Done:      len(done),
		Failed:    len(failed),
		Complete:  len(done) == len(st.run.Jobs),
		EventsURL: "/run/" + st.run.ID + "/events",
	}
	for _, j := range st.run.Jobs {
		v.Jobs = append(v.Jobs, runJobView{
			Bench: j.Bench, Label: j.Label, N: j.N, Key: j.Key,
			Done: done[j.Key], Failed: failed[j.Key],
		})
	}
	if withResults {
		v.Results = make([]*RunResponse, len(st.run.Jobs))
		for i, j := range st.run.Jobs {
			if !done[j.Key] {
				continue
			}
			if payload, ok := s.store.Get(j.Key); ok {
				if resp, err := s.responseFromPayload(payload, j); err == nil {
					v.Results[i] = resp
				}
			}
		}
	}
	return v
}

func (s *server) handleRunStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.runDoc(st, true))
}

// handleRunEvents streams a run's ETA/MIPS progress series as Server-Sent
// Events: one catch-up `progress` event on attach, one per completed job,
// and a final `done` event when the run finishes.  The numbers come from
// the same experiment.Tracker the terminal reporter renders.
//
// Every broadcast carries its run-local sequence number as the SSE `id:`
// field, and a reconnecting client that presents it back as Last-Event-ID
// (which EventSource does automatically) resumes with a replay of exactly
// the completions it missed instead of a lossy snapshot.  A client further
// behind than the replay buffer — or resuming across a server restart —
// falls back to the catch-up snapshot, same as a fresh attach.
func (s *server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// Subscribe before the replay/snapshot so no completion can fall
	// between them; seen tracks the highest Seq already written so live
	// updates that raced the replay are not delivered twice.
	updates, unsubscribe := st.subscribe()
	defer unsubscribe()
	var seen uint64
	resumed := false
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if after, err := strconv.ParseUint(v, 10, 64); err == nil {
			if replay, ok := st.updatesSince(after); ok {
				for _, u := range replay {
					if u.Complete {
						writeSSE(w, flusher, "done", u)
						return
					}
					writeSSE(w, flusher, "progress", u)
				}
				seen, resumed = after, true
				if n := len(replay); n > 0 {
					seen = replay[n-1].Seq
				}
			}
		}
	}
	if !resumed {
		snap := st.progress()
		if snap.Complete {
			writeSSE(w, flusher, "done", snap)
			return
		}
		writeSSE(w, flusher, "progress", snap)
		seen = snap.Seq
	}
	for {
		select {
		case u := <-updates:
			if u.Complete {
				writeSSE(w, flusher, "done", u)
				return
			}
			if u.Seq > seen {
				writeSSE(w, flusher, "progress", u)
				seen = u.Seq
			}
		case <-st.finished:
			// Drain any update that raced the latch, then close out.
			for {
				select {
				case u := <-updates:
					if u.Complete {
						writeSSE(w, flusher, "done", u)
						return
					}
					if u.Seq > seen {
						writeSSE(w, flusher, "progress", u)
						seen = u.Seq
					}
				default:
					writeSSE(w, flusher, "done", st.progress())
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE emits one event; broadcast updates (Seq > 0) carry an `id:`
// line so clients can resume via Last-Event-ID.
func writeSSE(w http.ResponseWriter, flusher http.Flusher, event string, u runUpdate) {
	data, err := json.Marshal(u)
	if err != nil {
		return
	}
	if u.Seq > 0 {
		fmt.Fprintf(w, "id: %d\n", u.Seq)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	flusher.Flush()
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Refresh process-level and platform gauges at scrape time.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.Gauge("wbserve_goroutines").Set(float64(runtime.NumGoroutine()))
	s.reg.Gauge("wbserve_heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	depth := s.queue.Depth()
	for tn, n := range s.queue.DepthByTenant() {
		s.reg.Gauge(metrics.Label("wbserve_tenant_pending", "tenant", tn)).Set(float64(n))
	}
	// The autoscaling hint: how many extra `wbserve -worker` processes the
	// backlog justifies, assuming each absorbs autoscaleJobsPerWorker jobs.
	s.reg.Gauge("wbserve_autoscale_workers_hint").
		Set(float64((depth + autoscaleJobsPerWorker - 1) / autoscaleJobsPerWorker))
	_, diskBytes, memEntries := s.store.Stats()
	s.reg.Gauge("wbserve_cache_entries").Set(float64(memEntries))
	s.reg.Gauge("wbserve_store_bytes").Set(float64(diskBytes))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
