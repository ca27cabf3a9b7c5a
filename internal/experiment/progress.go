package experiment

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// ProgressEvent describes one completed (benchmark, configuration) job of
// a matrix run.
type ProgressEvent struct {
	// Done is the number of jobs finished so far, Total the matrix size.
	// Done increases by exactly one per event, reaching Total on the last.
	Done, Total int
	// Bench and Label identify the finished job.
	Bench, Label string
	// Instructions and Cycles are the job's measured (post-warm-up)
	// dynamic instruction and cycle counts.
	Instructions, Cycles uint64
	// JobTime is the job's host time, warm-up included: its wall-clock
	// duration when it ran alone (through a Backend), or, for a job run in
	// a lockstep row, its machine's own time plus its share of the row's
	// reference generation (dispatch.ExecuteRow), so a row's JobTimes sum
	// to the row's wall time.
	JobTime time.Duration
}

// ProgressSnapshot is one point of the live ETA/MIPS series a Tracker
// derives from ProgressEvents.  It is what the terminal reporter renders
// and what wbserve streams over SSE, so every consumer of sweep progress
// reports the same numbers.
type ProgressSnapshot struct {
	// Done/Total mirror the underlying event.
	Done, Total int
	// Bench and Label identify the job that advanced the sweep.
	Bench, Label string
	// Instructions and Cycles are the finished job's measured counts.
	Instructions, Cycles uint64
	// Elapsed is wall time since the sweep's (backdated) start; ETA
	// extrapolates the remainder from the mean job rate so far.
	Elapsed, ETA time.Duration
	// MIPS is aggregate measured simulated instructions per wall-clock
	// second across all workers, in millions.
	MIPS float64
}

// Tracker accumulates ProgressEvents into the ETA/MIPS series.  The zero
// value is ready to use; methods are safe for concurrent use.  A Tracker
// may span consecutive matrices: wall time and instruction totals keep
// accumulating while Done/Total restart with each matrix — exactly the
// behaviour the terminal reporter has always had, now reusable.
type Tracker struct {
	mu    sync.Mutex
	start time.Time
	instr uint64
}

// Observe folds one event into the series and returns the updated
// snapshot.
func (t *Tracker) Observe(ev ProgressEvent) ProgressSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.start.IsZero() {
		// The first event arrives at least one job-time after the matrix
		// began (a lockstep row's first event, one row's wall time);
		// backdating keeps the MIPS figure honest for short sweeps.
		t.start = time.Now().Add(-ev.JobTime)
	}
	t.instr += ev.Instructions
	elapsed := time.Since(t.start)
	return ProgressSnapshot{
		Done:         ev.Done,
		Total:        ev.Total,
		Bench:        ev.Bench,
		Label:        ev.Label,
		Instructions: ev.Instructions,
		Cycles:       ev.Cycles,
		Elapsed:      elapsed,
		ETA:          eta(elapsed, ev.Done, ev.Total),
		MIPS:         float64(t.instr) / elapsed.Seconds() / 1e6,
	}
}

// ProgressReporter returns a Progress callback that renders a live,
// single-line status to w — typically a terminal's stderr:
//
//	fig5  [ 37/102]  36%  elapsed 4.1s  eta 7.2s  41.3 MIPS  (swm256/ret-8)
//
// The line is redrawn in place with a carriage return and finished with a
// newline after the last job.  The aggregate MIPS figure is measured
// simulated instructions per wall-clock second across all workers.  The
// reporter is safe for use as Options.Progress (events already arrive
// serialised) and may be shared across consecutive matrices: wall time and
// instruction totals keep accumulating, while Done/Total restart with each
// matrix.  The numbers come from a Tracker, the same series wbserve
// streams per run over SSE.
func ProgressReporter(w io.Writer, name string) func(ProgressEvent) {
	var (
		mu      sync.Mutex
		tracker Tracker
		maxLen  int
	)
	return func(ev ProgressEvent) {
		s := tracker.Observe(ev)
		mu.Lock()
		defer mu.Unlock()
		line := fmt.Sprintf("%s  [%3d/%-3d] %3d%%  elapsed %s  eta %s  %.1f MIPS  (%s/%s)",
			name, s.Done, s.Total, 100*s.Done/s.Total,
			fmtDur(s.Elapsed), fmtDur(s.ETA),
			s.MIPS,
			s.Bench, s.Label)
		// Pad with spaces so a shorter redraw fully covers its predecessor.
		if len(line) > maxLen {
			maxLen = len(line)
		}
		fmt.Fprintf(w, "\r%-*s", maxLen, line)
		if s.Done == s.Total {
			fmt.Fprintln(w)
		}
	}
}

// eta extrapolates the remaining wall time from the mean job rate so far.
func eta(elapsed time.Duration, done, total int) time.Duration {
	if done == 0 {
		return 0
	}
	return time.Duration(float64(elapsed) / float64(done) * float64(total-done))
}

// fmtDur renders a duration compactly: 4.1s, 2m08s, 1h03m.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Minute:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d < time.Hour:
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	default:
		return fmt.Sprintf("%dh%02dm", int(d.Hours()), int(d.Minutes())%60)
	}
}
