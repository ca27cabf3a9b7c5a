// Command wbserve exposes the simulator as an HTTP service: submit a
// machine configuration and one or more benchmarks as JSON, get the
// paper's measurements back as JSON.  It is the serving layer of the sweep
// platform — results live in the shared content-addressed result store
// (bounded in-memory tier always, durable on-disk tier with -store), sweeps
// queue through a durable FIFO (-queue) drained by an in-process dispatcher
// pool, progress streams over Server-Sent Events, and every tenant is rate
// limited and quota'd by the X-WB-Tenant header.
//
// With -worker the process additionally serves POST /job, the sweep-worker
// endpoint of internal/dispatch: a coordinator running
// `wbexp -workers host1,host2` shards a matrix sweep across a pool of
// such processes.  Jobs are deterministic, so workers are stateless and
// interchangeable — any worker (or a retry on a different worker) returns
// the identical measurement.  See docs/DISTRIBUTED.md for the pool guide
// and docs/SERVING.md for the platform guide.
//
// Usage:
//
//	wbserve                                   # in-memory, listen on :8047
//	wbserve -store /var/lib/wb/results        # durable shared result store
//	wbserve -store /var/lib/wb/a,/var/lib/wb/b   # two mirrored replicas + scrubber
//	wbserve -store /var/lib/wb/results -queue /var/lib/wb/queue.jsonl
//	wbserve -tenants tenants.json -rate 10 -maxpending 256
//	wbserve -authkeys keys.json               # bearer-token auth + /admin surface
//	wbserve -worker -addr :8101               # also accept sweep jobs on POST /job
//
// Endpoints (with -authkeys every surface except /healthz and /job demands
// a bearer token; run documents are readable only by their owning tenant or
// an admin — run ids are content-addressed and therefore derivable):
//
//	GET  /experiments      list the paper's experiment ids and titles
//	POST /run              run a (benchmark, configuration) sweep: JSON in,
//	                       JSON out; "async": true answers 202 with a run id
//	GET  /run/{id}         run document: job status plus results from the store
//	GET  /run/{id}/events  Server-Sent Events progress stream (ETA/MIPS series)
//	POST /job              run one sweep job (wire format; -worker only; never
//	                       token-gated — keep workers on loopback or a private net)
//	GET  /metrics          Prometheus text exposition of the metrics registry
//	GET  /healthz          readiness probe: 200 while accepting work, 503 while
//	                       starting or draining (the dispatcher's re-probe target)
//	GET  /debug/pprof/     net/http/pprof profiles
//	GET  /debug/vars       expvar JSON (cmdline, memstats)
//
// Admin endpoints (require -authkeys and a token whose tenant holds the
// admin bit; 401 without a token, 403 without the bit):
//
//	POST /admin/store/verify   synchronous integrity pass (scrub when replicated)
//	POST /admin/store/evict    {"config_hash": h}: drop one configuration's entries
//	POST /admin/store/prune    {"max_entries": n}: bound the disk tier
//	GET  /admin/store/status   tier sizes, per-replica stats, last scrub report
//	GET  /admin/queue/status   backlog depth, journal bytes, autoscale hint
//
// Example:
//
//	curl -s localhost:8047/run -d '{"bench":"li","depth":12,"retire_at":8,"hazard":"read-from-WB"}'
//	curl -s localhost:8047/run -d '{"benches":["li","compress"],"n":2000000,"async":true}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/tenant"
)

func main() {
	var (
		addr      = flag.String("addr", ":8047", "listen address")
		cacheSize = flag.Int("cachesize", 256, "in-memory result-store tier capacity in entries; must be >= 1 (0 is rejected: a zero-entry cache would silently re-simulate every request — bound work with -maxn instead)")
		maxN      = flag.Uint64("maxn", 20_000_000, "largest per-request instruction count accepted")
		worker    = flag.Bool("worker", false, "serve POST /job so wbexp -workers can dispatch sweep jobs here")
		storeDir  = flag.String("store", "", "durable content-addressed result-store directory, shared with wbexp/wbopt -store (empty: results live in memory only)")
		queueFile = flag.String("queue", "", "durable job-queue journal (JSONL); sweeps survive kill -9 and resume on restart; requires -store")
		workers   = flag.Int("dispatchers", 0, "simulation goroutines draining the job queue (0 = number of CPUs)")
		tenantsF  = flag.String("tenants", "", "per-tenant limits JSON file (see docs/SERVING.md); \"*\" overrides the defaults")
		rate      = flag.Float64("rate", 0, "default per-tenant sustained request rate in requests/second (0 = unlimited)")
		burst     = flag.Float64("burst", 0, "default per-tenant burst size (0 = same as -rate, minimum 1)")
		maxPend   = flag.Int("maxpending", 0, "default per-tenant cap on enqueued-but-unfinished simulations (0 = unlimited)")
		drain     = flag.Duration("draintimeout", 30*time.Second, "graceful-shutdown deadline for in-flight requests on SIGINT/SIGTERM")
		authKeys  = flag.String("authkeys", "", "bearer-token keys JSON file (see docs/SERVING.md); enables authentication and the /admin surface")
		scrubEach = flag.Duration("scrubinterval", 5*time.Minute, "background scrub interval of a store with two or more replicas (jittered; only meaningful with a comma-separated -store)")
	)
	flag.Parse()

	overrides, err := tenant.LoadConfig(*tenantsF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wbserve: %v\n", err)
		os.Exit(2)
	}
	keyring, err := tenant.LoadKeyring(*authKeys)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wbserve: %v\n", err)
		os.Exit(2)
	}
	s, err := newServer(serverConfig{
		CacheSize:       *cacheSize,
		MaxN:            *maxN,
		Worker:          *worker,
		StoreDir:        *storeDir,
		ScrubInterval:   *scrubEach,
		QueuePath:       *queueFile,
		Dispatchers:     *workers,
		TenantDefaults:  tenant.Limits{Rate: *rate, Burst: *burst, MaxPending: *maxPend},
		TenantOverrides: overrides,
		Keyring:         keyring,
		Logf:            log.New(os.Stderr, "", log.LstdFlags).Printf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wbserve: %v\n", err)
		os.Exit(2)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	mode := ""
	if *worker {
		mode = ", worker mode"
	}
	durability := "memory-only"
	if *storeDir != "" {
		durability = "store " + *storeDir
		if *queueFile != "" {
			durability += ", queue " + *queueFile
		}
	}
	fmt.Fprintf(os.Stderr, "wbserve: listening on %s (cache %d entries, maxn %d, %s%s)\n",
		*addr, *cacheSize, *maxN, durability, mode)

	// Graceful shutdown: the first SIGINT/SIGTERM flips the server to
	// draining — /healthz turns 503 so dispatchers route around us, new
	// /run and /job work is refused — then http.Server.Shutdown lets
	// in-flight requests finish under the drain deadline, and finally the
	// dispatcher pool and queue journal close (jobs in flight at that point
	// have no stored result, so they re-run on the next start).  A second
	// signal kills the process the usual way (NotifyContext unregisters
	// after the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	s.ready.SetDraining()
	fmt.Fprintf(os.Stderr, "wbserve: signal received, draining in-flight requests (up to %v)\n", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Fatalf("wbserve: drain deadline exceeded: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	s.Close()
	fmt.Fprintln(os.Stderr, "wbserve: drained, exiting")
}
