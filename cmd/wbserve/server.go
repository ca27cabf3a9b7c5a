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

// autoscaleJobsPerWorker is the queue depth one additional wbserve process
// is assumed to absorb; /metrics divides the backlog by it to produce
// wbserve_autoscale_workers_hint, a signal for operators who run more.
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

// normalize fills the instruction count and validates what the simulator
// cannot: the instruction cap and the request's shape.  Machine fields
// left zero take the baseline in config, so equivalent requests build one
// machine and share one store key.
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
	if len(r.Config) > 0 && r.hasScalarConfig() {
		return r, fmt.Errorf("config blob and machine fields are mutually exclusive")
	}
	return r, nil
}

// errInvalidConfig marks a request whose JSON was well-formed but whose
// machine fails sim.Config.Validate — the client described an impossible
// configuration, so /run answers 422, not 400 (malformed request) or 500
// (server fault).
var errInvalidConfig = errors.New("invalid machine configuration")

// config builds the simulator configuration — decoding the machconf blob
// when one was sent, applying the scalars that were set to the baseline as
// machconf settings otherwise — and relies on machconf.Validate for the
// microarchitectural invariants; validation failures are wrapped in
// errInvalidConfig.
func (r RunRequest) config() (sim.Config, error) {
	var cfg sim.Config
	if len(r.Config) > 0 {
		var err error
		if cfg, err = machconf.Decode(r.Config); err != nil {
			return sim.Config{}, err
		}
	} else {
		var settings []machconf.Setting
		for _, f := range []struct {
			key string
			val any
		}{
			{"depth", r.Depth}, {"width", r.Width}, {"retire", r.RetireAt},
			{"aging", r.AgingTimeout}, {"hazard", r.Hazard}, {"l1", r.L1Size},
			{"l2lat", r.L2Lat}, {"l2", r.L2Size}, {"memlat", r.MemLat},
			{"wcache", r.WriteCache}, {"issue", r.IssueWidth},
		} {
			if val := fmt.Sprint(f.val); val != "0" && val != "" {
				settings = append(settings, f.key+"="+val)
			}
		}
		var err error
		if cfg, err = machconf.Apply(sim.Baseline(), settings...); err != nil {
			return sim.Config{}, err
		}
	}
	if err := machconf.Validate(cfg); err != nil {
		return sim.Config{}, fmt.Errorf("%w: %v", errInvalidConfig, err)
	}
	return cfg, nil
}

// label renders the request as a compact descriptor: the machine's buffer
// shape and policies, or the canonical hash prefix when the machine
// arrived as a blob.
func (r RunRequest) label(cfg sim.Config, hash string) string {
	if len(r.Config) > 0 {
		return "machconf:" + hash[:12]
	}
	retire, _ := cfg.Retire.(core.RetireAt)
	return fmt.Sprintf("depth=%d,width=%d,retire=%d,hazard=%s",
		cfg.WB.Depth, cfg.WB.WordsPerEntry, retire.N, cfg.Hazard)
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
	// list of roots, which the store mirrors as self-healing replicas;
	// empty keeps results in memory only.
	StoreDir string
	// ScrubInterval starts the store's background scrubber when it has two
	// or more replicas (ignored with one directory or none).
	ScrubInterval time.Duration
	// Keyring, when non-nil, turns bearer-token authentication on: POST
	// /run requires a valid token and the /admin surface additionally
	// requires the admin bit.  Nil keeps identity header-declared and the
	// admin surface disabled.
	Keyring *tenant.Keyring
	// QueuePath is the durable job-queue journal; empty keeps the queue in
	// memory.  A durable queue requires a durable store: a job is done only
	// while the store holds its result, and a memory-only store forgets
	// every result at restart, so every journaled run would re-run.
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
	// Cached(Local) — before the dispatcher pool starts.  Local execution
	// cannot fail for an admitted config, so tests use this seam to
	// exercise the dispatcher's failure path behind the real
	// queue/store/registry stack.  Unexported: not reachable from flags.
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

	store   *resultstore.Store
	queue   *jobqueue.Queue
	tenants *tenant.Registry
	keys    *tenant.Keyring
	runs    *runRegistry
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
		return nil, fmt.Errorf("-queue requires -store: a memory-only store forgets every result at restart, so every journaled run would re-run")
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
		backend: dispatch.NewCached(&dispatch.Local{Metrics: reg}, store, reg),
		logf:    logf,
	}
	if cfg.testBackend != nil {
		s.backend = cfg.testBackend(s.backend)
	}
	// Recovery: re-register every journaled run (so GET /run/{id} answers
	// across restarts), then rebuild the pending FIFO from the jobs whose
	// results the store lacks.
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
		go s.dispatchLoop(ctx, n)
	}
	// Construction is cheap and the process serves nothing until the
	// listener is up, so the server is born ready; main flips it to
	// draining on SIGINT/SIGTERM.
	s.ready.SetReady()
	return s, nil
}

// Close stops the dispatcher pool and closes the queue journal.  In-flight
// jobs are abandoned before their results are stored, so the journal
// re-delivers them on the next start — at-least-once, made harmless by
// determinism and the store.
func (s *server) Close() {
	s.cancel()
	s.wg.Wait()
	_ = s.queue.Close()
	_ = s.store.Close() // stops the store's scrubber, if one runs
}

// storeHas is the result store's membership test: recovery registers the
// journaled runs and resumes the queue by it, and the event stream of a
// dropped run is rebuilt by it — the one definition of a finished job.
func (s *server) storeHas(key string) bool {
	_, ok := s.store.Get(key)
	return ok
}

// stored holds the payloads the result store answered for a request's
// jobs, keyed by result-store key; a job it lacks is not done.
type stored map[string][]byte

// fill asks the store once for each job p lacks and keeps what it holds.
func (p stored) fill(store *resultstore.Store, jobs []jobqueue.Job) stored {
	for _, j := range jobs {
		if _, ok := p[j.Key]; !ok {
			if payload, ok := store.Get(j.Key); ok {
				p[j.Key] = payload
			}
		}
	}
	return p
}

// has is the membership test of the store answer p records.
func (p stored) has(key string) bool {
	_, ok := p[key]
	return ok
}

// dispatchLoop is one of ways simulation workers: dequeue a row — the
// oldest queued job and the queued jobs that share its benchmark and
// length, up to experiment.RowWidth() and to a ways-th of the backlog —
// run it through the store-backed backend as one row over one generated
// stream, then end each job's flight and fan its outcome out to every
// waiting run.  It never waits to fill a row, so a lone job starts as
// soon as it is queued, and a burst of one benchmark is split across the
// dispatchers rather than run on one of them.  The store writes happen
// inside the backend's RunRow (the Cached wrapper), before any job's Done;
// a write that fails is counted by the store and the job still completes
// — the measurement is in hand and the memory tier serves it — but it is
// not done after a restart, so the journal re-delivers it.
func (s *server) dispatchLoop(ctx context.Context, ways int) {
	defer s.wg.Done()
	dispatched := s.reg.Counter("wbserve_dispatched_jobs_total")
	failures := s.reg.Counter("wbserve_job_failures_total")
	rowJobs := s.reg.Histogram("wbserve_row_jobs")
	for {
		row, err := s.queue.DequeueRow(ctx, experiment.RowWidth(), ways)
		if err != nil {
			return
		}
		dispatched.Add(uint64(len(row)))
		rowJobs.Observe(uint64(len(row)))
		results := make([]dispatch.RowResult, len(row))
		var runnable []int
		var jobs []dispatch.Job
		for i, job := range row {
			cfg, err := machconf.Decode(job.Config)
			if err != nil {
				results[i].Err = err
				continue
			}
			runnable = append(runnable, i)
			jobs = append(jobs, dispatch.Job{Bench: job.Bench, Label: job.Label, Cfg: cfg, N: job.N})
		}
		for k, r := range dispatch.RunRow(ctx, s.backend, jobs) {
			results[runnable[k]] = r
		}
		for i, job := range row {
			_ = s.queue.Done(job.Key)
			r := results[i]
			if r.Err != nil {
				if ctx.Err() != nil {
					// Shutdown took the job down with it; the store lacks
					// its result, so the journal re-delivers it on the next
					// start.
					continue
				}
				// Jobs are validated at admission and deterministic, so
				// this is exceptional (config skew, a dead pool).  Record a
				// distinct *failure* on every waiting run: waiters are
				// released, but the job is not counted done, so the ledger
				// never claims a result it does not have and a
				// resubmission (or the post-restart replay) retries it.
				failures.Inc()
				s.logf("wbserve: job %s failed: %v", job.Key, r.Err)
				s.runs.settle(job.Key, experiment.ProgressEvent{Bench: job.Bench, Label: job.Label}, true)
				continue
			}
			experiment.CountJob(s.reg, r.M, r.Time)
			tn := job.Tenant
			if tn == "" {
				tn = tenant.DefaultName
			}
			s.reg.Counter(metrics.Label("wbserve_tenant_jobs_total", "tenant", tn)).Inc()
			s.runs.settle(job.Key, experiment.ProgressEvent{
				Bench:        job.Bench,
				Label:        job.Label,
				Instructions: r.M.C.Instructions,
				Cycles:       r.M.C.Cycles,
				JobTime:      r.Time,
			}, false)
		}
		if ctx.Err() != nil {
			return
		}
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
// resolves {id} to a run, and enforces tenant scope: only the owning
// tenant or an admin may read a run document or its event stream.
// Authentication comes BEFORE the lookup, so anonymous callers always see
// 401 and learn nothing about which run ids exist.  st is the run's
// registered state, or nil for a run the queue records but the registry
// dropped (maxCompletedRuns); the lookup registers nothing.  Writes the
// refusal and reports false when the caller may not proceed.
func (s *server) lookupRun(w http.ResponseWriter, r *http.Request) (run jobqueue.Run, st *runState, ok bool) {
	var id tenant.Identity
	if s.keys.Enabled() {
		var status int
		var msg string
		id, status, msg = s.identify(r)
		if status != 0 {
			refuseUnidentified(w, status, msg)
			return run, nil, false
		}
	}
	if st, ok = s.runs.get(r.PathValue("id")); ok {
		run = st.run
	} else if run, ok = s.queue.RunByID(r.PathValue("id")); !ok {
		httpError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return run, nil, false
	}
	if s.keys.Enabled() && !id.Admin && run.Tenant != id.Name {
		httpError(w, http.StatusForbidden, "run %s belongs to tenant %q", run.ID, run.Tenant)
		return run, nil, false
	}
	return run, st, true
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

	label := req.label(cfg, hash)
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

	// One store answer per job: the synchronous single-job fast path, the
	// pending-work quota, registration, submission and the 202 document
	// all act on it.  A store hit answers a synchronous single-job request
	// without touching the queue (and keeps the historical wbserve_cache_*
	// series meaningful — hits never simulate, misses do).
	payloads := stored{}.fill(s.store, jobs)
	single := !req.Async && len(jobs) == 1
	cached := single && payloads.has(jobs[0].Key)
	var st *runState
	if !cached {
		if !s.tenants.AdmitPending(tn, s.queue.DepthByTenant()[tn], len(jobs)-len(payloads)) {
			w.Header().Set("Retry-After", "5")
			httpError(w, http.StatusTooManyRequests, "tenant %q is over its pending-work quota", tn)
			return
		}
		run := jobqueue.Run{ID: runID(tn, jobs), Tenant: tn, Jobs: jobs}
		st = s.runs.register(run, payloads.has)
		if _, err := s.queue.Submit(run, payloads.has); err != nil {
			httpError(w, http.StatusInternalServerError, "enqueueing run: %v", err)
			return
		}
		if req.Async {
			writeJSON(w, http.StatusAccepted, s.runDoc(st, payloads, false))
			return
		}
		select {
		case <-st.finished:
		case <-r.Context().Done():
			return // client gave up; the sweep keeps draining and the store keeps the results
		}
		payloads.fill(s.store, jobs)
	}
	if !single {
		writeJSON(w, http.StatusOK, s.runDoc(st, payloads, true))
		return
	}
	if cached {
		s.reg.Counter("wbserve_cache_hits_total").Inc()
	} else {
		s.reg.Counter("wbserve_cache_misses_total").Inc()
	}
	payload, ok := payloads[jobs[0].Key]
	if !ok {
		httpError(w, http.StatusInternalServerError, "job %s failed without a stored result (see wbserve_job_failures_total)", jobs[0].Key)
		return
	}
	resp, err := s.responseFromPayload(payload, jobs[0])
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp.Cached = cached
	writeJSON(w, http.StatusOK, resp)
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
// mutually exclusive; a failed job has no stored result, so it retries on
// resubmission or after a restart.
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

// runDoc builds the run document from the store's answer for the run's
// jobs: a job is done exactly when payloads holds it, and failed when its
// last attempt errored and the store still lacks it.
func (s *server) runDoc(st *runState, payloads stored, withResults bool) runView {
	v := runView{
		ID:        st.run.ID,
		Tenant:    st.run.Tenant,
		Total:     len(st.run.Jobs),
		EventsURL: "/run/" + st.run.ID + "/events",
	}
	st.mu.Lock()
	for _, j := range st.run.Jobs {
		_, done := payloads[j.Key]
		v.Jobs = append(v.Jobs, runJobView{
			Bench: j.Bench, Label: j.Label, N: j.N, Key: j.Key,
			Done: done, Failed: !done && st.failed[j.Key],
		})
	}
	st.mu.Unlock()
	if withResults {
		v.Results = make([]*RunResponse, len(st.run.Jobs))
	}
	for i, jv := range v.Jobs {
		switch {
		case jv.Done:
			v.Done++
			if withResults {
				if resp, err := s.responseFromPayload(payloads[jv.Key], st.run.Jobs[i]); err == nil {
					v.Results[i] = resp
				}
			}
		case jv.Failed:
			v.Failed++
		}
	}
	v.Complete = v.Done == v.Total
	return v
}

func (s *server) handleRunStatus(w http.ResponseWriter, r *http.Request) {
	run, st, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	payloads := stored{}.fill(s.store, run.Jobs)
	if st == nil {
		st = newRunState(run, payloads.has) // a dropped run: the store answers alone
	}
	writeJSON(w, http.StatusOK, s.runDoc(st, payloads, true))
}

// handleRunEvents streams a run's ETA/MIPS progress series as Server-Sent
// Events: one catch-up `progress` event on attach, one per finished job
// (a completion or a failure), and a final `done` event once every job is
// done or failed.  The numbers come from the same experiment.Tracker the
// terminal reporter renders.
//
// Every broadcast carries its run-local sequence number as the SSE `id:`
// field, and a reconnecting client that presents it back as Last-Event-ID
// (which EventSource does automatically) resumes with a replay of exactly
// the completions it missed instead of a lossy snapshot.  A client further
// behind than the replay buffer — or resuming across a server restart —
// falls back to the catch-up snapshot, same as a fresh attach.
func (s *server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	run, st, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	if st == nil {
		// A dropped run the store still holds whole streams its done event
		// from a detached state.  One the store no longer holds whole is
		// registered, so its stream follows the run's resubmission.
		if st = newRunState(run, s.storeHas); !st.progress().Complete {
			st = s.runs.follow(run, s.storeHas)
		}
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
	// between them.  seen is the Seq of the newest broadcast written; emit
	// writes every broadcast — replayed or live — past it, so updates that
	// raced the replay or snapshot are not delivered twice, and reports
	// whether the stream is over.
	updates, unsubscribe := st.subscribe()
	defer unsubscribe()
	var seen uint64
	emit := func(u runUpdate) bool {
		if u.Seq <= seen {
			return false
		}
		seen = u.Seq
		return writeSSE(w, flusher, u)
	}
	var replay []runUpdate
	resumed := false
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if after, err := strconv.ParseUint(v, 10, 64); err == nil {
			replay, resumed = st.updatesSince(after)
			seen = after
		}
	}
	if !resumed {
		snap := st.progress()
		if writeSSE(w, flusher, snap) {
			return
		}
		seen = snap.Seq
	}
	for _, u := range replay {
		if emit(u) {
			return
		}
	}
	for {
		select {
		case u := <-updates:
			if emit(u) {
				return
			}
		case <-st.finished:
			// Drain the updates that raced the latch; the closing snapshot
			// ends the stream even if the final broadcast was dropped.
			for len(updates) > 0 {
				if emit(<-updates) {
					return
				}
			}
			writeSSE(w, flusher, st.progress())
			return
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE emits one update — a done event once the run has settled, a
// progress event before — and reports whether it was the done event.
// Broadcast updates (Seq > 0) carry an `id:` line so clients can resume via
// Last-Event-ID.
func writeSSE(w http.ResponseWriter, flusher http.Flusher, u runUpdate) bool {
	event := "progress"
	if u.settled() {
		event = "done"
	}
	data, err := json.Marshal(u)
	if err != nil {
		return false
	}
	if u.Seq > 0 {
		fmt.Fprintf(w, "id: %d\n", u.Seq)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	flusher.Flush()
	return u.settled()
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
	// The autoscaling hint: how many extra wbserve processes the backlog
	// justifies, assuming each absorbs autoscaleJobsPerWorker jobs.
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
