// Package jobqueue is the durable FIFO in front of the platform's dispatch
// pool: sweeps are submitted as runs, their jobs queue in arrival order,
// and an append-only, torn-tail-tolerant JSONL journal makes the whole
// thing survive a kill -9.
//
// The write-buffer analogy is deliberate.  The paper's buffer decouples a
// fast producer (the CPU issuing stores) from a slow consumer (the L2
// accepting retirements) and makes the deferred work shareable — merging
// stores to one line costs one retirement.  The queue does the same for
// the serving layer: POST /run accepts sweeps at request speed, simulation
// capacity drains them asynchronously, and deduplication by result-store
// key is the coalescing step — two tenants asking for the same
// (bench, n, machine) enqueue one job, and one execution retires both.
//
// Durability protocol.  The journal has one record kind:
//
//	{"op":"run","run":{...}}   a submitted run: id, tenant, ordered jobs
//
// appended the first time a run id is submitted.  The queue keeps no
// record of finished jobs: the result store is the only one, and a job is
// done exactly when the store holds its key.  Submit, Resume and
// compaction all decide with the store's membership test, so a key the
// store forgets (LRU eviction, an admin evict or prune, a quarantined
// copy) is simply not done any more and queues again.  On restart, every
// journaled job the store lacks is re-enqueued in its original order
// (at-least-once delivery — harmless, because jobs are deterministic).  A
// job that was in flight when the process died simply reruns.  A torn
// final line is skipped; a {"op":"done"} line from an older journal
// replays as a no-op.
//
// Growth is bounded: Resume compacts the journal after replay, rewriting
// only the runs that still have jobs the store lacks and atomically
// swapping the file — a long-lived server replays a backlog, not its whole
// history.  The jobqueue_journal_bytes gauge tracks the file size between
// restarts.  In memory the queue holds at most RetainedRuns runs, beyond
// which only runs with a job pending or in flight stay.
//
// The queue does not interpret job payloads: the machconf blob rides
// through opaquely, so custom registered policies queue like built-ins.
// docs/SERVING.md covers sizing, recovery semantics, and journal rotation.
package jobqueue

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/metrics"
)

// Job is one queued simulation: the benchmark coordinates, the machine's
// canonical machconf blob, and the result-store key the finished
// measurement will live under (also the dedup identity).
type Job struct {
	Bench string `json:"bench"`
	Label string `json:"label,omitempty"`
	N     uint64 `json:"n"`
	// Config is the machconf canonical blob, opaque to the queue.
	Config json.RawMessage `json:"config"`
	// Key is the resultstore key (bench|n|machconf-hash).
	Key string `json:"key"`
	// Tenant attributes the job for quotas and per-tenant metrics.
	Tenant string `json:"tenant,omitempty"`
}

// Run is a submitted sweep: an ordered set of jobs under one identity.
// IDs are content-addressed by the caller (wbserve hashes tenant + job
// keys), so resubmitting an identical sweep converges on one run.
type Run struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	Jobs   []Job  `json:"jobs"`
}

// RetainedRuns bounds the runs a Queue holds in memory: while it holds
// more, the oldest settled runs — none of their jobs pending or in flight —
// leave Runs and RunByID.  The journal is not touched, so a replay brings
// them back until Resume's compaction drops them.
const RetainedRuns = 256

// record is one journal line.
type record struct {
	Op  string `json:"op"` // "run"; older journals also hold "done"
	Run *Run   `json:"run,omitempty"`
}

// Queue is the durable FIFO.  All methods are safe for concurrent use.
type Queue struct {
	mu      sync.Mutex
	f       *os.File        // nil for a memory-only queue
	path    string          // journal path, "" for memory-only
	bytes   int64           // journal size (tracked so appends stay O(1))
	runs    map[string]*Run // the journaled runs still held (RetainedRuns), by id
	order   []string        // their ids in submission order
	pending []Job           // FIFO of deduped jobs the store lacks
	// active is the dedup index: keys pending or dequeued and still in
	// flight.  A key leaves it only through Done, so a resubmission while
	// its job executes is not enqueued a second time.
	active map[string]bool
	wake   chan struct{} // closed-and-replaced to wake blocked Dequeue
	closed bool

	loaded  int // runs replayed from the journal
	skipped int // unparsable journal lines

	enqueued  *metrics.Counter
	deduped   *metrics.Counter
	compacted *metrics.Counter
	depth     *metrics.Gauge
	jbytes    *metrics.Gauge
	logf      func(format string, args ...any)
}

// Open opens (creating if needed) the queue journaled at path, replaying
// any existing journal.  An empty path selects a memory-only queue: same
// semantics, no durability.  reg, when non-nil, receives the jobqueue_*
// series.  After Open, call Resume with the result store's membership test
// to build the pending FIFO from the replayed runs.
func Open(path string, reg *metrics.Registry, logf func(format string, args ...any)) (*Queue, error) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	q := &Queue{
		runs:      map[string]*Run{},
		active:    map[string]bool{},
		wake:      make(chan struct{}),
		enqueued:  reg.Counter("jobqueue_enqueued_total"),
		deduped:   reg.Counter("jobqueue_deduped_total"),
		compacted: reg.Counter("jobqueue_compactions_total"),
		depth:     reg.Gauge("jobqueue_depth"),
		jbytes:    reg.Gauge("jobqueue_journal_bytes"),
		logf:      logf,
	}
	if path == "" {
		return q, nil
	}
	q.path = path
	if existing, err := os.ReadFile(path); err == nil {
		q.replay(existing)
		q.bytes = int64(len(existing))
		q.jbytes.Set(float64(q.bytes))
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("jobqueue: reading journal %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobqueue: opening journal %s: %w", path, err)
	}
	q.f = f
	return q, nil
}

// replay loads journal lines, skipping unparsable ones (a torn tail from a
// killed writer); the affected run is simply resubmitted by its client or
// its jobs rerun.
func (q *Queue) replay(data []byte) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			q.skipped++
			if q.logf != nil {
				q.logf("jobqueue: skipping unparsable journal line %d (%d bytes)", lineNo, len(line))
			}
			continue
		}
		switch {
		case rec.Op == "run" && rec.Run != nil && rec.Run.ID != "":
			if _, dup := q.runs[rec.Run.ID]; !dup { // first submission wins
				q.runs[rec.Run.ID] = rec.Run
				q.order = append(q.order, rec.Run.ID)
				q.loaded++
			}
		case rec.Op == "done":
			// A done marker from an older journal carries nothing: the
			// store decides which jobs are finished.
		default:
			q.skipped++
		}
	}
}

// Resume builds the pending FIFO from the replayed runs: every job whose
// key fails the store membership test (isDone may be nil, which counts
// nothing done) is enqueued in original submission order.  Jobs that were
// in flight at the kill reappear here — at-least-once delivery.  Returns
// the number of jobs queued for re-execution.
func (q *Queue) Resume(isDone func(key string) bool) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, id := range q.order {
		for _, j := range q.runs[id].Jobs {
			if q.active[j.Key] || (isDone != nil && isDone(j.Key)) {
				continue
			}
			q.pending = append(q.pending, j)
			q.active[j.Key] = true
			n++
		}
	}
	if n > 0 {
		q.depth.Set(float64(len(q.pending)))
		q.wakeAll()
		if q.logf != nil {
			q.logf("jobqueue: resumed %d pending jobs from %d journaled runs", n, q.loaded)
		}
	}
	q.compactLocked(isDone)
	q.trimLocked()
	return n
}

// compactLocked rewrites the journal with only its live runs — those with
// a job the store lacks (isDone may be nil, which keeps every run) — and
// atomically replaces the old file, so the journal's size tracks the
// backlog, not the history.  Completed runs drop out of the journal
// entirely (their results live in the store, and resubmitting the same
// sweep reconstructs the run instantly from store hits).  Callers hold mu.
// Best-effort: a failed rewrite keeps the old journal and is logged, never
// fatal.
func (q *Queue) compactLocked(isDone func(key string) bool) {
	if q.f == nil || q.path == "" {
		return
	}
	undone := func(j Job) bool { return isDone == nil || !isDone(j.Key) }
	live := 0
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, id := range q.order {
		run := q.runs[id]
		if !slices.ContainsFunc(run.Jobs, undone) {
			continue
		}
		live++
		if enc.Encode(record{Op: "run", Run: run}) != nil {
			return
		}
	}
	if int64(buf.Len()) >= q.bytes {
		return // nothing to reclaim
	}
	tmp, err := os.CreateTemp(filepath.Dir(q.path), ".journal-*")
	if err == nil {
		if _, err = tmp.Write(buf.Bytes()); err == nil {
			err = tmp.Sync()
		}
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp.Name(), q.path)
		}
		if err != nil {
			os.Remove(tmp.Name())
		}
	}
	if err != nil {
		if q.logf != nil {
			q.logf("jobqueue: journal compaction failed (keeping old journal): %v", err)
		}
		return
	}
	// The old append handle points at the unlinked file; reopen on the new.
	old := q.f
	f, err := os.OpenFile(q.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The compacted journal is durable but unappendable — run degraded
		// (memory-only appends) rather than crash; the next restart replays
		// the compacted file.
		q.f = nil
		if q.logf != nil {
			q.logf("jobqueue: reopening compacted journal failed, appends disabled: %v", err)
		}
	} else {
		q.f = f
	}
	old.Close()
	reclaimed := q.bytes - int64(buf.Len())
	q.bytes = int64(buf.Len())
	q.jbytes.Set(float64(q.bytes))
	q.compacted.Inc()
	if q.logf != nil {
		q.logf("jobqueue: compacted journal %s: %d live runs kept, %d bytes reclaimed",
			q.path, live, reclaimed)
	}
}

// JournalBytes reports the journal's current size (0 for memory-only) —
// the admin queue-status figure alongside Depth.
func (q *Queue) JournalBytes() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.bytes
}

// Loaded reports how many runs the journal replayed and how many
// unparsable lines were skipped.
func (q *Queue) Loaded() (runs, skipped int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.loaded, q.skipped
}

// Submit journals a run the first time its id is seen and enqueues the
// jobs the store lacks, deduplicating by result-store key: a key already
// pending or in flight (from any run or tenant) or accepted by isDone —
// the result store's membership test; nil counts nothing done — is not
// enqueued again.  Returns how many jobs were newly enqueued.
// Resubmitting a run id the queue holds appends nothing: the first
// submission's record stands.  A run the queue dropped (RetainedRuns) is
// journaled again when resubmitted; replay keeps the first record.
func (q *Queue) Submit(run Run, isDone func(key string) bool) (queued int, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, fmt.Errorf("jobqueue: closed")
	}
	if _, exists := q.runs[run.ID]; !exists {
		if err := q.append(record{Op: "run", Run: &run}); err != nil {
			return 0, err
		}
		q.runs[run.ID] = &run
		q.order = append(q.order, run.ID)
	}
	for _, j := range run.Jobs {
		if q.active[j.Key] || (isDone != nil && isDone(j.Key)) {
			q.deduped.Inc()
			continue
		}
		q.pending = append(q.pending, j)
		q.active[j.Key] = true
		q.enqueued.Inc()
		queued++
	}
	q.depth.Set(float64(len(q.pending)))
	if queued > 0 {
		q.wakeAll()
	}
	q.trimLocked()
	return queued, nil
}

// trimLocked drops the oldest settled runs while the queue holds more
// than RetainedRuns.  Callers hold mu.
func (q *Queue) trimLocked() {
	excess := len(q.order) - RetainedRuns
	if excess <= 0 {
		return
	}
	kept := q.order[:0]
	for _, id := range q.order {
		if excess > 0 && !slices.ContainsFunc(q.runs[id].Jobs, func(j Job) bool { return q.active[j.Key] }) {
			delete(q.runs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	clear(q.order[len(kept):])
	q.order = kept
}

// Dequeue removes and returns the oldest pending job, blocking until one
// is available, the context is cancelled, or the queue is closed (which
// returns an error, letting dispatcher goroutines exit).  The job stays in
// flight — resubmissions of its key are deduplicated — until the caller
// reports it with Done.  It is DequeueRow with a row of one.
func (q *Queue) Dequeue(ctx context.Context) (Job, error) {
	row, err := q.DequeueRow(ctx, 1, 1)
	if err != nil {
		return Job{}, err
	}
	return row[0], nil
}

// DequeueRow removes and returns the oldest pending job together with the
// later pending jobs that share its Bench and N, so the caller can run
// them over one generated stream.  The row holds at most width jobs and at
// most a ways-th of the pending jobs, rounded up (either below 1 counts as
// 1): with ways consumers draining the queue, one row never takes the work
// the others could be running — the rule experiment's rowsPerBench applies
// to the in-process sweep.  It blocks like Dequeue until the head job
// exists, but never waits for row-mates: it takes only what is already
// queued.  The jobs left behind keep their order.  Every returned job
// stays in flight until the caller reports its own key with Done.
func (q *Queue) DequeueRow(ctx context.Context, width, ways int) ([]Job, error) {
	for {
		q.mu.Lock()
		if len(q.pending) > 0 {
			ways = max(ways, 1)
			share := (len(q.pending) + ways - 1) / ways
			row := q.takeRowLocked(min(width, share))
			q.depth.Set(float64(len(q.pending)))
			q.mu.Unlock()
			return row, nil
		}
		if q.closed {
			q.mu.Unlock()
			return nil, fmt.Errorf("jobqueue: closed")
		}
		wake := q.wake
		q.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// takeRowLocked cuts the head job and up to width-1 later jobs of the
// same (Bench, N) out of the non-empty pending FIFO, compacting the rest
// in place.  Callers hold mu.
func (q *Queue) takeRowLocked(width int) []Job {
	p := q.pending
	row := []Job{p[0]}
	w, i := 1, 1
	for ; i < len(p) && len(row) < width; i++ {
		if p[i].Bench == row[0].Bench && p[i].N == row[0].N {
			row = append(row, p[i])
			continue
		}
		p[w] = p[i]
		w++
	}
	if w < i { // a row-mate left a gap: close it
		w += copy(p[w:], p[i:])
		clear(p[w:])
	} else {
		w = len(p)
	}
	q.pending = p[1:w]
	return row
}

// Done ends a dequeued job's flight, whether it succeeded or failed: from
// then on a submission of the key is deduplicated only if the store holds
// its result.  It journals nothing; the error is always nil.
func (q *Queue) Done(key string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.active, key)
	return nil
}

// RunByID returns a run the queue holds.
func (q *Queue) RunByID(id string) (Run, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	r, ok := q.runs[id]
	if !ok {
		return Run{}, false
	}
	return *r, true
}

// Runs returns the runs the queue holds, in submission order.
func (q *Queue) Runs() []Run {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Run, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, *q.runs[id])
	}
	return out
}

// Depth reports the number of pending jobs.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// DepthByTenant reports pending jobs per tenant — the quota denominator
// and the per-tenant autoscaling signal on /metrics.
func (q *Queue) DepthByTenant() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := map[string]int{}
	for _, j := range q.pending {
		out[j.Tenant]++
	}
	return out
}

// append journals one record; one Write call so concurrent appends never
// interleave and a crash tears at most the final line.  Callers hold mu.
func (q *Queue) append(rec record) error {
	if q.f == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobqueue: encoding journal record: %w", err)
	}
	if _, err := q.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("jobqueue: appending journal record: %w", err)
	}
	q.bytes += int64(len(line) + 1)
	q.jbytes.Set(float64(q.bytes))
	return nil
}

// wakeAll releases every blocked Dequeue.  Callers hold mu.
func (q *Queue) wakeAll() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// Close flushes and closes the journal and unblocks every Dequeue with an
// error.  Pending jobs stay journaled and reappear on the next Open+Resume.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	q.wakeAll()
	if q.f == nil {
		return nil
	}
	err := q.f.Close()
	q.f = nil
	return err
}
