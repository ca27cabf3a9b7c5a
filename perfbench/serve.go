package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/explore"
	"repro/internal/machconf"
	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Served-workload settings shared by serve_mixed and serve_sweep.  Both run
// a dispatcher per CPU, wbserve's default: with fewer, one dispatcher drains
// every in-flight resubmission after its original job finished, and the
// queue's dedupe race could never show.
const (
	serveSetupReps = 21
	serveWarm      = 2 * time.Second
	healthPoll     = 250 * time.Microsecond
	healthTimeout  = 20 * time.Second
	stopTimeout    = 15 * time.Second
)

// tenants are the two identities the closed-loop connections alternate.
var tenants = []string{"alpha", "beta"}

// server is one wbserve subprocess with a durable store and queue journal
// of its own.
type server struct {
	cmd  *exec.Cmd
	base string
	dir  string
	done chan struct{}
	err  error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts wbserve with a dispatcher per CPU on a fresh store and
// journal under dir and returns once /healthz answers ok, with the time
// that took.
func startServer(cfg runConfig, dir string) (*server, time.Duration, error) {
	if cfg.wbserve == "" {
		return nil, 0, errors.New("served workloads need -wbserve")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "wbserve.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	s := &server{base: fmt.Sprintf("http://127.0.0.1:%d", port), dir: dir, done: make(chan struct{})}
	s.cmd = exec.Command(cfg.wbserve,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-store", filepath.Join(dir, "store"),
		"-queue", filepath.Join(dir, "queue.jsonl"),
		"-dispatchers", strconv.Itoa(cfg.procs),
		"-draintimeout", "10s")
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even if it is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	for deadline := t0.Add(healthTimeout); time.Now().Before(deadline); time.Sleep(healthPoll) {
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("wbserve exited during start-up: %v (log in %s)", s.err, dir)
		default:
		}
		resp, err := probe.Get(s.base + "/healthz")
		if err != nil {
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && strings.TrimSpace(string(body)) == "ok" {
			return s, time.Since(t0), nil
		}
	}
	s.stop()
	return nil, 0, fmt.Errorf("wbserve did not answer /healthz within %v", healthTimeout)
}

// stop drains the server with SIGTERM, killing it if the drain overruns,
// and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(stopTimeout):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// scrape reads /metrics into a name → value map.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// histQuantile estimates a quantile of a metrics.Histogram from the change
// in its `_bucket{le="…"}` series, interpolating linearly inside the
// bucket that holds it.
func histQuantile(before, after map[string]float64, name string, q float64) (float64, int, error) {
	type bucket struct{ lo, hi, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		hi, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			return 0, 0, err
		}
		if n := v - before[k]; n > 0 {
			bs = append(bs, bucket{hi: hi, n: n})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].hi < bs[j].hi })
	var total float64
	for i := range bs {
		bs[i].lo = math.Floor(bs[i].hi / 2) // power-of-two buckets
		total += bs[i].n
	}
	if need := minSamples(q); int(total) < need {
		return 0, int(total), fmt.Errorf("%s p%g needs %d samples, have %d", name, q*100, need, int(total))
	}
	rank := q * total
	for _, b := range bs {
		if rank <= b.n {
			return b.lo + (b.hi-b.lo)*rank/b.n, int(total), nil
		}
		rank -= b.n
	}
	return bs[len(bs)-1].hi, int(total), nil
}

// servedConfigs is the machine pool the served workloads draw from: a
// write-buffer and hierarchy grid wide enough that no run exhausts its new
// keys, each with its canonical machconf blob and hash.
type servedConfig struct {
	cfg  sim.Config
	blob json.RawMessage
	hash string
}

func servedConfigs() ([]servedConfig, error) {
	var hazards []core.HazardPolicy
	for _, name := range []string{"flush-full", "flush-partial", "flush-item-only", "read-from-WB"} {
		h, ok := machconf.HazardByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown hazard %q", name)
		}
		hazards = append(hazards, h)
	}
	sp := &explore.Space{
		Depths:  []int{1, 2, 3, 4, 6, 8, 10, 12, 14, 16},
		Retires: []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16},
		Hazards: hazards,
		L1Sizes: []int{4 << 10, 8 << 10, 16 << 10},
		L2Lats:  []uint64{3, 6, 9, 12},
		MemLats: []uint64{25, 50, 100},
	}
	cands, err := sp.Enumerate()
	if err != nil {
		return nil, err
	}
	out := make([]servedConfig, len(cands))
	for i, c := range cands {
		blob, err := machconf.Encode(c.Cfg)
		if err != nil {
			return nil, err
		}
		out[i] = servedConfig{cfg: c.Cfg, blob: blob, hash: c.Hash}
	}
	return out, nil
}

// served is a served workload's running state: the server under test, its
// client, and the scratch directory removed when the run ends.
type served struct {
	runDir string
	srv    *server
	client *http.Client
	starts int   // servers started so far
	reps   []rep // set-up repetitions
}

// setupServed starts the server serveSetupReps+1 times on fresh
// directories and keeps the last.  Every start but the first, which pays
// for loading the binary, is a set-up repetition; stopServed adds as many
// more after the measured phase, and setup_s is the median time to a
// healthy /healthz over both groups.  Starting a process on the reference
// VM swings by a fifth over seconds, so one burst of starts measures the
// moment more than the program; two bursts some twenty seconds apart
// measure both ends of the run.
func setupServed(cfg runConfig) (*served, error) {
	runDir := filepath.Join(cfg.work, fmt.Sprintf("run-%d", os.Getpid()))
	s := &served{runDir: runDir}
	// Write back what the build and earlier runs left dirty (binaries, a
	// removed store of tens of thousands of files) before the timed starts,
	// so that writeback does not land inside them.
	syscall.Sync()
	if err := s.setupReps(cfg, "first", serveSetupReps+1, true); err != nil {
		s.close()
		return nil, err
	}
	// One connection per closed loop plus one for /metrics scrapes.
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: cfg.procs + 1,
		MaxConnsPerHost:     cfg.procs + 1,
	}}
	return s, nil
}

// setupReps starts the server n times on fresh directories, recording each
// start but the first of the run as a set-up repetition.  With keepLast the
// last server keeps running as the server under test.
func (s *served) setupReps(cfg runConfig, group string, n int, keepLast bool) error {
	for i := 0; i < n; i++ {
		dir := filepath.Join(s.runDir, fmt.Sprintf("%s%d", group, i))
		steal0, _ := readSteal()
		srv, took, err := startServer(cfg, dir)
		if err != nil {
			return err
		}
		if steal1, _ := readSteal(); s.starts > 0 {
			s.reps = append(s.reps, rep{took: took.Seconds(), clean: steal1 == steal0})
		}
		s.starts++
		if keepLast && i == n-1 {
			s.srv = srv
			return nil
		}
		srv.stop()
		os.RemoveAll(dir)
	}
	return nil
}

// stopServed stops the server under test, runs the second burst of set-up
// repetitions, records setup_s, and returns the stopped server's store
// directory for the byte checks.
func (s *served) stopServed(cfg runConfig, o *outcome) (string, error) {
	storeDir := s.storeDir()
	s.srv.stop()
	s.srv = nil
	syscall.Sync() // the measured phase's store and journal writes, as before the first burst
	if err := s.setupReps(cfg, "second", serveSetupReps, false); err != nil {
		return "", err
	}
	times := cleanReps(s.reps)
	o.e2e["setup_s"] = metric{median(times), "s"}
	o.samples["setup_s"] = len(times)
	return storeDir, nil
}

// close stops the server if it still runs and removes the run's stores and
// journals.
func (s *served) close() {
	if s.srv != nil {
		s.srv.stop()
		s.srv = nil
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	os.RemoveAll(s.runDir)
}

// storeDir is the running server's result-store root.
func (s *served) storeDir() string { return filepath.Join(s.srv.dir, "store") }

// post sends one POST /run as tenant and decodes a 2xx JSON answer into v.
func (s *served) post(ctx context.Context, tenant string, body []byte, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.srv.base+"/run", strings.NewReader(string(body)))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-WB-Tenant", tenant)
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("POST /run: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return resp.StatusCode, json.Unmarshal(data, v)
}

// storedCheck returns a sample check requiring the server's stored bytes
// for key to equal the label-stripped JSON of the in-process measurement,
// which is what dispatch.Cached stores.
func storedCheck(store *resultstore.Store, key string) func(dispatch.Measurement) error {
	return func(m dispatch.Measurement) error {
		got, ok := store.Get(key)
		if !ok {
			return fmt.Errorf("%s: not in the server's store", key)
		}
		m.Label = ""
		want, err := json.Marshal(m)
		if err != nil {
			return err
		}
		if string(got) != string(want) {
			return fmt.Errorf("%s: served bytes differ from in-process dispatch.Execute", key)
		}
		return nil
	}
}

// serverLayers reports the per-layer metrics read from /metrics deltas over
// the measured phase.  newKeys is how many distinct keys the phase asked
// for that were not stored before it.
func serverLayers(o *outcome, before, after map[string]float64, newKeys int, wall time.Duration, dispatchers int) error {
	L := o.layer
	misses := delta(before, after, "dispatch_store_misses_total")
	L["dispatch.store_misses"] = metric{misses, "count"}
	L["dispatch.dup_executions"] = metric{misses - float64(newKeys), "count"}
	L["dispatch.dup_base"] = metric{float64(newKeys), "count"}
	hits := delta(before, after, `resultstore_hits_total{tier="memory"}`) + delta(before, after, `resultstore_hits_total{tier="disk"}`)
	lookups := hits + delta(before, after, "resultstore_misses_total")
	L["resultstore.hits"] = metric{hits, "count"}
	L["resultstore.lookups"] = metric{lookups, "count"}
	L["resultstore.hit_ratio"] = metric{hits / lookups, "ratio"}
	L["jobqueue.deduped"] = metric{delta(before, after, "jobqueue_deduped_total"), "count"}

	const hist = "experiment_job_microseconds"
	for _, q := range []struct {
		name string
		q    float64
	}{{"experiment.job_ms_p50", 0.5}, {"experiment.job_ms_p90", 0.9}} {
		v, n, err := histQuantile(before, after, hist, q.q)
		if err != nil {
			return err
		}
		L[q.name] = metric{v / 1e3, "ms"}
		o.samples[q.name] = n
	}
	busyUs := delta(before, after, hist+"_sum")
	L["experiment.pool_busy_frac"] = metric{busyUs / (float64(dispatchers) * float64(wall.Microseconds())), "ratio"}
	return nil
}

// meanJobMS is the server's mean job time over the measured phase.
func meanJobMS(before, after map[string]float64) float64 {
	const hist = "experiment_job_microseconds"
	return delta(before, after, hist+"_sum") / delta(before, after, hist+"_count") / 1e3
}

// keyRing remembers answered keys (or completed configs) in answer order,
// so a repeat can ask for the k-th most recent one.
type keyRing struct {
	mu   sync.Mutex
	keys []int
}

func (r *keyRing) add(k int) {
	r.mu.Lock()
	r.keys = append(r.keys, k)
	r.mu.Unlock()
}

// recent returns the back-th most recent entry (wrapping when fewer are
// known), or false when the ring is empty.
func (r *keyRing) recent(back int) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.keys) == 0 {
		return 0, false
	}
	return r.keys[len(r.keys)-1-back%len(r.keys)], true
}

// inflight publishes what each connection is waiting on, so another
// connection can ask for the same work while it is still running.
type inflight struct {
	mu  sync.Mutex
	cur map[int]int // connection → key or config index
}

func (f *inflight) set(conn, k int) {
	f.mu.Lock()
	if f.cur == nil {
		f.cur = map[int]int{}
	}
	f.cur[conn] = k
	f.mu.Unlock()
}

func (f *inflight) clear(conn int) {
	f.mu.Lock()
	delete(f.cur, conn)
	f.mu.Unlock()
}

// other returns work another connection is waiting on, if any.
func (f *inflight) other(conn int) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for c, k := range f.cur {
		if c != conn {
			return k, true
		}
	}
	return 0, false
}

// benchNames is the suite in figure order.
func benchNames() []string {
	var out []string
	for _, b := range workload.All() {
		out = append(out, b.Name)
	}
	return out
}

// measured is what a served measured phase recorded.
type measured struct {
	ph            *phase
	instr         perSecond          // simulated instructions, by phase second
	rssMB         float64            // the server's VmHWM after --seconds of load
	before, after map[string]float64 // /metrics at the start and after the drain
}

// measure runs the closed loop, which must stop once ph.over, until the
// phase holds seconds of clean host time.  Every second it scrapes the
// server's simulated-instruction counter; at the phase's nominal length it
// reads the server's peak RSS, so the reading does not grow with a phase a
// busy host stretched.
func (s *served) measure(seconds time.Duration, loop func(ph *phase) error) (*measured, error) {
	const counter = "experiment_instructions_total"
	m := &measured{}
	var err error
	if m.before, err = scrape(s.client, s.srv.base); err != nil {
		return nil, err
	}
	pid := fmt.Sprint(s.srv.cmd.Process.Pid)
	nominal := int(seconds / time.Second)
	last := m.before[counter]
	var tickErr error
	m.ph = startPhase(seconds, func(sec int) {
		if tickErr != nil {
			return
		}
		var cur map[string]float64
		if cur, tickErr = scrape(s.client, s.srv.base); tickErr != nil {
			return
		}
		m.instr.add(sec-1, cur[counter]-last)
		last = cur[counter]
		if sec == nominal {
			m.rssMB, tickErr = peakRSSMB(pid)
		}
	})
	err = loop(m.ph)
	m.ph.stop() // the tick runs on the monitor goroutine; stop waits for it
	if err == nil {
		err = tickErr
	}
	if err == nil {
		m.after, err = scrape(s.client, s.srv.base)
	}
	return m, err
}

// closedLoop runs op on conns connections, each issuing its next op only
// after the previous one returned, until stop reports true; it returns the
// wall time from start to the last op's end, or the first op error.
func closedLoop(conns int, stop func() bool, op func(c int) error) (time.Duration, error) {
	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop() {
				if err := op(c); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}
