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
	// Bench/Label/Key identify the job that advanced the run (empty on the
	// initial catch-up snapshot).
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
	// count toward Done or Complete — they carry no done marker, so the
	// journal re-delivers them after a restart (or a resubmission retries
	// them immediately).  FailedJobs is the run's current failure count.
	Failed     bool `json:"failed,omitempty"`
	FailedJobs int  `json:"failed_jobs,omitempty"`
}

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

func (st *runState) snapshotLocked(ev *experiment.ProgressEvent) runUpdate {
	u := runUpdate{
		RunID:      st.run.ID,
		Seq:        st.seq,
		Done:       len(st.done),
		Total:      len(st.run.Jobs),
		FailedJobs: len(st.failed),
		Complete:   len(st.done) == len(st.run.Jobs),
	}
	if ev != nil {
		s := st.tracker.Observe(*ev)
		u.Bench, u.Label, u.Instructions, u.Cycles = s.Bench, s.Label, s.Instructions, s.Cycles
		u.ElapsedMS = s.Elapsed.Milliseconds()
		u.EtaMS = s.ETA.Milliseconds()
		u.MIPS = s.MIPS
		st.seq++
		u.Seq = st.seq
		st.history = append(st.history, u)
		if len(st.history) > runHistory {
			st.history = append(st.history[:0:0], st.history[len(st.history)-runHistory:]...)
		}
	}
	return u
}

// failureLocked records one job failure and builds its broadcast update.
// The ETA tracker is not advanced — a failed job measured nothing — but the
// update still takes a sequence number so Last-Event-ID replay covers it.
func (st *runState) failureLocked(bench, label string) runUpdate {
	u := runUpdate{
		RunID:      st.run.ID,
		Done:       len(st.done),
		Total:      len(st.run.Jobs),
		FailedJobs: len(st.failed),
		Bench:      bench,
		Label:      label,
		Failed:     true,
	}
	st.seq++
	u.Seq = st.seq
	st.history = append(st.history, u)
	if len(st.history) > runHistory {
		st.history = append(st.history[:0:0], st.history[len(st.history)-runHistory:]...)
	}
	return u
}

// progress reports the run's current counts without advancing the tracker —
// the catch-up snapshot a freshly attached SSE client receives first.
func (st *runState) progress() runUpdate {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.snapshotLocked(nil)
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

// doneKeys reports which of the run's keys are complete and which are
// currently failed (retryable — a resubmission or a post-restart replay
// reruns them).
func (st *runState) doneKeys() (done, failed map[string]bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	done = make(map[string]bool, len(st.done))
	for k := range st.done {
		done[k] = true
	}
	failed = make(map[string]bool, len(st.failed))
	for k := range st.failed {
		failed[k] = true
	}
	return done, failed
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

// register installs a run (idempotently: an already-registered id returns
// the existing state).  isDone, when non-nil, seeds the done set — the
// result store's membership test, so store-answered jobs never wait.
func (rr *runRegistry) register(run jobqueue.Run, isDone func(key string) bool) *runState {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if st, ok := rr.runs[run.ID]; ok {
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
		if isDone != nil && isDone(j.Key) {
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

// complete marks key done in every run waiting on it, advancing each run's
// tracker with the per-run Done/Total view and broadcasting to its SSE
// subscribers.  A subscriber that cannot keep up drops updates rather than
// stalling the dispatcher (SSE is a progress feed, not a ledger; GET
// /run/{id} is the ledger).
func (rr *runRegistry) complete(key string, ev experiment.ProgressEvent) {
	rr.mu.Lock()
	holders := rr.waiting[key]
	delete(rr.waiting, key)
	rr.mu.Unlock()
	for st := range holders {
		st.mu.Lock()
		if st.done[key] {
			st.mu.Unlock()
			continue
		}
		st.done[key] = true
		delete(st.failed, key) // a retry succeeded; the failure is history
		ev.Done, ev.Total = len(st.done), len(st.run.Jobs)
		u := st.snapshotLocked(&ev)
		for ch := range st.subs {
			select {
			case ch <- u:
			default:
			}
		}
		if u.Complete && !st.closed {
			st.closed = true
			close(st.finished)
		}
		st.mu.Unlock()
	}
}

// fail marks key failed in every run waiting on it.  Unlike complete, the
// key is NOT removed from the waiting index and NOT counted done: a failed
// job has no stored result and no done marker, so a resubmission (or the
// journal replay after a restart) reruns it, and a later success flows
// through complete and clears the failure.  Synchronous waiters are still
// released — once every job is either done or failed there is nothing left
// in flight to wait for, and the run document distinguishes the two.
func (rr *runRegistry) fail(key string, ev experiment.ProgressEvent) {
	rr.mu.Lock()
	holders := make([]*runState, 0, len(rr.waiting[key]))
	for st := range rr.waiting[key] {
		holders = append(holders, st)
	}
	rr.mu.Unlock()
	for _, st := range holders {
		st.mu.Lock()
		if st.done[key] || st.failed[key] {
			st.mu.Unlock()
			continue
		}
		st.failed[key] = true
		u := st.failureLocked(ev.Bench, ev.Label)
		for ch := range st.subs {
			select {
			case ch <- u:
			default:
			}
		}
		if len(st.done)+len(st.failed) == len(st.run.Jobs) && !st.closed {
			st.closed = true
			close(st.finished)
		}
		st.mu.Unlock()
	}
}
