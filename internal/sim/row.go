package sim

import (
	"context"
	"time"

	"repro/internal/trace"
)

// Row steps several machines in lockstep over one reference stream: each
// batch the generator fills is executed by every machine in turn, so a
// sweep of K configurations over one benchmark generates its references
// once instead of K times.  Machines never observe each other — each one
// sees exactly the decoded sequence, in exactly the batches, it would see
// running alone — so a row machine's results are byte-identical to the
// same machine run by itself (TestRowMatchesSingleJobs).  One batch
// buffer serves the whole row; machines in a row never allocate their own.
//
// A Row is single-goroutine, like the machines in it.
type Row struct {
	ms  []*Machine
	buf []trace.Ref
	// Gen is the time the last Run spent in the generator's Fill calls —
	// reference generation, shared by every machine in the row.
	Gen time.Duration
	// Step[i] is the time the last Run spent stepping machine i.
	Step []time.Duration
}

// NewRow builds a row over the given machines.
func NewRow(ms []*Machine) *Row {
	return &Row{ms: ms, buf: make([]trace.Ref, batchSize), Step: make([]time.Duration, len(ms))}
}

// Run executes g to exhaustion on every machine with the warm-up split:
// the first warm dynamic instructions run unmeasured, then each machine's
// statistics are reset and the rest of the stream is measured.  The split
// falls on an instruction count, so it can cut a run-length-encoded Exec
// ref; the remainder and the rest of that batch run after the reset, on
// every machine alike.
//
// ctx is checked before every Fill, so a cancelled row stops within one
// batch and Run returns ctx.Err(), leaving the machines part-way through
// the stream.  Generation and stepping are timed per batch into Gen and
// Step, never per reference.
func (r *Row) Run(ctx context.Context, g trace.Generator, warm uint64) error {
	r.Gen = 0
	for i := range r.Step {
		r.Step[i] = 0
	}
	buf := r.buf
	measuring := false
	for warm > 0 && !measuring {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := time.Now()
		got := g.Fill(buf[:min(uint64(len(buf)), warm)])
		t = r.lap(-1, t)
		if got == 0 {
			break
		}
		var done batchDone
		for i, m := range r.ms {
			done = m.stepBatchN(buf[:got], warm)
			if done.instrs == warm {
				m.ResetStats()
				if done.pending > 0 {
					m.drainPending(done.pending)
				}
				m.StepBatch(buf[done.refs:got])
			}
			t = r.lap(i, t)
		}
		// Every machine consumed the same refs and instructions: the
		// split depends on the references alone.
		measuring = done.instrs == warm
		warm -= done.instrs
	}
	if !measuring {
		for _, m := range r.ms {
			m.ResetStats()
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := time.Now()
		got := g.Fill(buf)
		t = r.lap(-1, t)
		if got == 0 {
			return nil
		}
		for i, m := range r.ms {
			m.StepBatch(buf[:got])
			t = r.lap(i, t)
		}
	}
}

// lap charges the time since t to machine i's stepping, or to generation
// when i is negative, and returns the current time.
func (r *Row) lap(i int, t time.Time) time.Time {
	now := time.Now()
	if i < 0 {
		r.Gen += now.Sub(t)
	} else {
		r.Step[i] += now.Sub(t)
	}
	return now
}
