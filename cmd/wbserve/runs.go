package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"repro/internal/experiment"
	"repro/internal/jobqueue"
)

// runID content-addresses a sweep: the SHA-256 of the tenant and the
// ordered result-store keys, truncated for URLs.  Resubmitting an identical
// sweep — after a client retry, a kill -9, a load-balancer replay —
// converges on the same run id, so the journal holds one run and GET
// /run/{id} answers for all of them.
func runID(tenant string, jobs []jobqueue.Job) string {
	h := sha256.New()
	h.Write([]byte(tenant))
	for _, j := range jobs {
		h.Write([]byte{'\n'})
		h.Write([]byte(j.Key))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runHistory bounds the per-run replay buffer behind Last-Event-ID: a
// reconnecting client can resume across this many missed completions;
// further behind than that it gets a catch-up snapshot instead (GET
// /run/{id} remains the ledger either way).
const runHistory = 256

// runUpdate is one SSE progress datum: the Tracker's ETA/MIPS series for
// one run, advanced by one finished job.  It is the same series the
// terminal ProgressReporter renders, serialised.
type runUpdate struct {
	RunID string `json:"run_id"`
	// Seq numbers broadcast updates 1,2,3,… within one run and doubles as
	// the SSE event id, so a dropped client resumes by replaying
	// everything after its Last-Event-ID.  Catch-up snapshots carry the
	// seq of the last broadcast (0 before the first).
	Seq   uint64 `json:"seq"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	// Bench/Label/Key identify the job that advanced the run (empty on
	// catch-up snapshots); Key is its result-store key.
	Bench string `json:"bench,omitempty"`
	Label string `json:"label,omitempty"`
	Key   string `json:"key,omitempty"`
	// Instructions/Cycles are the finished job's measured counts.
	Instructions uint64  `json:"instructions,omitempty"`
	Cycles       uint64  `json:"cycles,omitempty"`
	ElapsedMS    int64   `json:"elapsed_ms"`
	EtaMS        int64   `json:"eta_ms"`
	MIPS         float64 `json:"mips"`
	Complete     bool    `json:"complete"`
	// Failed marks this update as a job *failure*: the job identified by
	// Bench/Label/Key errored instead of completing.  Failed jobs do not
	// count toward Done or Complete — the store lacks their result, so the
	// journal re-delivers them after a restart (or a resubmission retries
	// them immediately).  FailedJobs is the run's current failure count.
	Failed     bool `json:"failed,omitempty"`
	FailedJobs int  `json:"failed_jobs,omitempty"`
}

// settled reports whether every job of the run is done or failed: nothing
// is left in flight, so synchronous waiters are released and the SSE stream
// ends with a done event.
func (u runUpdate) settled() bool { return u.Done+u.FailedJobs == u.Total }

// runState is one registered sweep's live view: which keys are done, the
// ETA/MIPS tracker, the SSE subscribers, and a latch for synchronous
// waiters.
type runState struct {
	run jobqueue.Run

	mu       sync.Mutex
	done     map[string]bool
	failed   map[string]bool // keys whose last attempt errored (retryable)
	tracker  experiment.Tracker
	subs     map[chan runUpdate]bool
	finished chan struct{} // closed when every job is done or failed
	closed   bool
	seq      uint64      // id of the most recent broadcast update
	history  []runUpdate // last runHistory broadcasts, ascending Seq
}

// countsLocked is the run's current counts, stamped with the newest
// broadcast's sequence number.
func (st *runState) countsLocked() runUpdate {
	return runUpdate{
		RunID:      st.run.ID,
		Seq:        st.seq,
		Done:       len(st.done),
		Total:      len(st.run.Jobs),
		FailedJobs: len(st.failed),
		Complete:   len(st.done) == len(st.run.Jobs),
	}
}

// progress reports the run's current counts without advancing the tracker —
// the catch-up snapshot a freshly attached SSE client receives first.
func (st *runState) progress() runUpdate {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.countsLocked()
}

// updatesSince returns the retained broadcasts with Seq > after, for
// Last-Event-ID replay.  The second result reports whether the history
// still reaches back to the client's position; false means the buffer was
// trimmed past it (or the process restarted, resetting seq) and the caller
// must resync with a fresh snapshot instead.
func (st *runState) updatesSince(after uint64) ([]runUpdate, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if after >= st.seq {
		// At or ahead of the newest broadcast: ahead only happens across a
		// process restart, where replay is impossible — resync.
		return nil, after == st.seq
	}
	if len(st.history) == 0 || st.history[0].Seq > after+1 {
		return nil, false
	}
	var out []runUpdate
	for _, u := range st.history {
		if u.Seq > after {
			out = append(out, u)
		}
	}
	return out, true
}

// subscribe attaches an SSE client; the returned cancel detaches it.
func (st *runState) subscribe() (<-chan runUpdate, func()) {
	ch := make(chan runUpdate, 16)
	st.mu.Lock()
	st.subs[ch] = true
	st.mu.Unlock()
	return ch, func() {
		st.mu.Lock()
		delete(st.subs, ch)
		st.mu.Unlock()
	}
}

// stillDone reports whether the run counts no failure and isDone still
// holds every key it counts done.
func (st *runState) stillDone(isDone func(key string) bool) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.failed) > 0 {
		return false
	}
	for k := range st.done {
		if !isDone(k) {
			return false
		}
	}
	return true
}

// runRegistry indexes live runs by id and pending result-store key, fanning
// each completed job out to every run that contains it — the serving-layer
// face of queue deduplication: one execution retires the same key in every
// tenant's sweep at once.
type runRegistry struct {
	mu      sync.Mutex
	runs    map[string]*runState
	waiting map[string]map[*runState]bool // pending key → runs containing it
}

func newRunRegistry() *runRegistry {
	return &runRegistry{
		runs:    map[string]*runState{},
		waiting: map[string]map[*runState]bool{},
	}
}

// register installs a run and returns its state.  isDone is the result
// store's answer for the run's jobs: it seeds the done set, so
// store-answered jobs never wait.  An already-registered id returns the
// existing state while that state counts no failure and the store still
// holds every job it counts done.  Otherwise — a job failed, or the store
// forgot one (evicted, pruned, quarantined) — the run starts over from a
// fresh state that waits on the jobs the store lacks, which the caller's
// Submit re-queues.
func (rr *runRegistry) register(run jobqueue.Run, isDone func(key string) bool) *runState {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if st, ok := rr.runs[run.ID]; ok && st.stillDone(isDone) {
		return st
	}
	st := &runState{
		run:      run,
		done:     map[string]bool{},
		failed:   map[string]bool{},
		subs:     map[chan runUpdate]bool{},
		finished: make(chan struct{}),
	}
	for _, j := range run.Jobs {
		if isDone(j.Key) {
			st.done[j.Key] = true
			continue
		}
		w := rr.waiting[j.Key]
		if w == nil {
			w = map[*runState]bool{}
			rr.waiting[j.Key] = w
		}
		w[st] = true
	}
	rr.runs[run.ID] = st
	if len(st.done) == len(run.Jobs) {
		st.closed = true
		close(st.finished)
	}
	return st
}

// get returns a registered run's state.
func (rr *runRegistry) get(id string) (*runState, bool) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	st, ok := rr.runs[id]
	return st, ok
}

// settle records one job outcome in every run waiting on key: the one
// routine behind both completions and failures.  Each run counts the key
// done, or failed when failed is set, numbers the update, keeps it for
// Last-Event-ID replay, fans it out to its SSE subscribers, and releases its
// synchronous waiters once every job is done or failed.  A success ends the
// key's wait and clears an earlier failure; a failure leaves the key
// waiting, since the store lacks its result and a resubmission (or the
// journal replay after a restart) reruns it.  A subscriber that cannot keep
// up drops updates rather than stalling the dispatcher (SSE is a progress
// feed; GET /run/{id} is the ledger).
func (rr *runRegistry) settle(key string, ev experiment.ProgressEvent, failed bool) {
	rr.mu.Lock()
	holders := make([]*runState, 0, len(rr.waiting[key]))
	for st := range rr.waiting[key] {
		holders = append(holders, st)
	}
	if !failed {
		delete(rr.waiting, key)
	}
	rr.mu.Unlock()
	for _, st := range holders {
		st.mu.Lock()
		if st.done[key] || (failed && st.failed[key]) {
			st.mu.Unlock()
			continue
		}
		if failed {
			st.failed[key] = true
		} else {
			st.done[key] = true
			delete(st.failed, key)
		}
		u := st.countsLocked()
		u.Bench, u.Label, u.Key, u.Failed = ev.Bench, ev.Label, key, failed
		if !failed {
			// A failed job measured nothing, so only successes advance the
			// ETA/MIPS series.
			ev.Done, ev.Total = u.Done, u.Total
			p := st.tracker.Observe(ev)
			u.Instructions, u.Cycles = p.Instructions, p.Cycles
			u.ElapsedMS, u.EtaMS, u.MIPS = p.Elapsed.Milliseconds(), p.ETA.Milliseconds(), p.MIPS
		}
		st.seq++
		u.Seq = st.seq
		st.history = append(st.history, u)
		if len(st.history) > runHistory {
			st.history = append(st.history[:0:0], st.history[len(st.history)-runHistory:]...)
		}
		for ch := range st.subs {
			select {
			case ch <- u:
			default:
			}
		}
		if u.settled() && !st.closed {
			st.closed = true
			close(st.finished)
		}
		st.mu.Unlock()
	}
}
