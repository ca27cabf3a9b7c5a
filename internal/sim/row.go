package sim

import (
	"context"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
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
// A row also shares L1 lookups.  In the paper's machine the L1 is
// write-through and write-around, so nothing but a load miss fills it.
// With a perfect L2 (nothing invalidates L1 lines), no write cache, a
// flushing hazard policy (every miss fills; read-from-WB forwarding skips
// the fill), and no statistical I-cache, a machine's L1 contents — and so
// every load's hit or miss — follow from the reference stream alone.
// Such machines with one L1 geometry form a group: one row-owned cache
// looks up each batch once for the whole group and folds the L1-hit loads
// into execute runs, which the members step in closed form.  When Run
// returns each member's own L1 holds the shared cache's state.  A
// qualifying machine alone in its geometry is stepped like any other:
// filtering pays only when the lookup is shared.
//
// A Row is single-goroutine, like the machines in it.
type Row struct {
	ms  []*Machine
	buf []trace.Ref
	// groups share L1 lookups; grp[i] is machine i's group index, or -1.
	groups []l1Group
	grp    []int
	// plain lists the machines the current Run steps on the raw batch.
	plain []int
	// fbuf is the filtered batch, reused by every group in turn.
	fbuf []sref
	// filter is the time the last Run spent in shared L1 lookups; it is
	// already charged to the members' Step.
	filter time.Duration
	// Gen is the time the last Run spent in the generator's Fill calls —
	// reference generation, shared by every machine in the row.
	Gen time.Duration
	// Step[i] is the time the last Run spent stepping machine i, including
	// an even share of its group's L1 lookups.
	Step []time.Duration
}

// l1Group is a set of machines whose L1s follow the stream alone and
// share one geometry.
type l1Group struct {
	l1      *cache.Cache
	members []int
	// active records whether the members' L1s were identical when the
	// current Run began; only then can one cache stand for all of them.
	active bool
}

// sref is one entry of a filtered batch: a load that missed L1, a store,
// a barrier, or an execute run with L1-hit loads folded into it.
type sref struct {
	arg  uint64 // the address of a memory reference; a run's instruction count
	hits uint32 // L1-hit loads among a run's instructions
	kind trace.Kind
}

// NewRow builds a row over the given machines.
func NewRow(ms []*Machine) *Row {
	r := &Row{
		ms:    ms,
		buf:   make([]trace.Ref, batchSize),
		grp:   make([]int, len(ms)),
		plain: make([]int, 0, len(ms)),
		Step:  make([]time.Duration, len(ms)),
	}
	byL1 := make(map[cache.Config][]int)
	var order []cache.Config
	for i, m := range ms {
		r.grp[i] = -1
		if !m.l1FollowsStream() {
			continue
		}
		if _, ok := byL1[m.cfg.L1]; !ok {
			order = append(order, m.cfg.L1)
		}
		byL1[m.cfg.L1] = append(byL1[m.cfg.L1], i)
	}
	for _, cfg := range order {
		if members := byL1[cfg]; len(members) >= 2 {
			for _, i := range members {
				r.grp[i] = len(r.groups)
			}
			r.groups = append(r.groups, l1Group{l1: cache.New(cfg), members: members})
		}
	}
	if len(r.groups) > 0 {
		r.fbuf = make([]sref, batchSize)
	}
	return r
}

// l1FollowsStream reports whether m's L1 contents depend on the reference
// stream alone, the condition for sharing its lookups (Row).
func (m *Machine) l1FollowsStream() bool {
	return m.l2 == nil && m.cfg.WriteCacheDepth == 0 && m.cfg.Hazard != core.ReadFromWB && m.irand == nil
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
	r.Gen, r.filter = 0, 0
	for i := range r.Step {
		r.Step[i] = 0
	}
	r.attach()
	defer r.detach()
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
		// The split depends on the references alone, so it is found once
		// for every machine: the longest prefix inside the budget, plus
		// the head of a run-length-encoded Exec ref that straddles it.
		i, instrs := 0, uint64(0)
		for ; i < got; i++ {
			k := buf[i].InstrCount()
			if instrs+k > warm {
				break
			}
			instrs += k
		}
		if i < got && instrs < warm {
			left := warm - instrs
			rest := buf[i].InstrCount() - left
			buf[i] = trace.ExecRun(left)
			t = r.step(buf[:i+1], t)
			buf[i] = trace.ExecRun(rest)
			instrs = warm
		} else {
			t = r.step(buf[:i], t)
		}
		warm -= instrs
		if warm == 0 {
			t = r.resetStats(t)
			r.step(buf[i:got], t)
			measuring = true
		}
	}
	if !measuring {
		r.resetStats(time.Now())
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
		r.step(buf[:got], t)
	}
}

// attach prepares a Run: a group shares lookups only if its members' L1s
// are identical (fresh machines always are), and the shared cache starts
// from their common state.  Every other machine steps the raw batch.
func (r *Row) attach() {
	for gi := range r.groups {
		g := &r.groups[gi]
		first := r.ms[g.members[0]].l1
		g.active = true
		for _, i := range g.members[1:] {
			if !r.ms[i].l1.Equal(first) {
				g.active = false
				break
			}
		}
		if g.active {
			g.l1.CopyFrom(first)
			for _, i := range g.members {
				r.ms[i].sharedL1 = true
			}
		}
	}
	r.plain = r.plain[:0]
	for i, gi := range r.grp {
		if gi < 0 || !r.groups[gi].active {
			r.plain = append(r.plain, i)
		}
	}
}

// detach ends a Run, cancelled or not: every group member's own L1 takes
// the shared cache's contents and statistics, leaving it exactly as if it
// had made every lookup itself.
func (r *Row) detach() {
	for gi := range r.groups {
		g := &r.groups[gi]
		if !g.active {
			continue
		}
		for _, i := range g.members {
			r.ms[i].l1.CopyFrom(g.l1)
			r.ms[i].sharedL1 = false
		}
	}
}

// step executes refs on every machine: the plain ones step the batch
// itself, each active group's members step its filtered form.
func (r *Row) step(refs []trace.Ref, t time.Time) time.Time {
	for _, i := range r.plain {
		r.ms[i].StepBatch(refs)
		t = r.lap(i, t)
	}
	for gi := range r.groups {
		g := &r.groups[gi]
		if !g.active {
			continue
		}
		out := g.filter(refs, r.fbuf)
		t = r.lapGroup(g.members, t)
		for _, i := range g.members {
			r.ms[i].stepShared(out)
			t = r.lap(i, t)
		}
	}
	return t
}

// resetStats is the warm-up split's statistics reset, shared L1s
// included.
func (r *Row) resetStats(t time.Time) time.Time {
	for gi := range r.groups {
		r.groups[gi].l1.ResetStats()
	}
	for i, m := range r.ms {
		m.ResetStats()
		t = r.lap(i, t)
	}
	return t
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

// lapGroup charges the time since t, a group's L1 lookups, evenly to the
// group's members, and returns the current time.
func (r *Row) lapGroup(members []int, t time.Time) time.Time {
	now := time.Now()
	d := now.Sub(t)
	r.filter += d
	share := d / time.Duration(len(members))
	for _, i := range members {
		r.Step[i] += share
	}
	r.Step[members[0]] += d - share*time.Duration(len(members))
	return now
}

// filter looks up every load and store of refs in the group's L1, in
// stream order — a load that misses fills its line, as it would in each
// member — and writes the members' batch into out: L1-hit loads fold into
// the surrounding execute run, everything else is kept in order.  A run
// entry stands for at least one input ref that produced no entry of its
// own, so the output is never longer than refs.
func (g *l1Group) filter(refs []trace.Ref, out []sref) []sref {
	l1 := g.l1
	n := 0
	var run uint64
	var hits uint32
	for _, ref := range refs {
		switch ref.Kind {
		case trace.Exec:
			run += ref.InstrCount()
			continue
		case trace.Load:
			if l1.Read(ref.Addr) {
				run++
				hits++
				continue
			}
			l1.Fill(ref.Addr)
		case trace.Store:
			l1.WriteHit(ref.Addr)
		}
		if run > 0 {
			out[n] = sref{arg: run, hits: hits, kind: trace.Exec}
			n++
			run, hits = 0, 0
		}
		out[n] = sref{arg: uint64(ref.Addr), kind: ref.Kind}
		n++
	}
	if run > 0 {
		out[n] = sref{arg: run, hits: hits, kind: trace.Exec}
		n++
	}
	return out[:n]
}

// stepShared is StepBatch for a group member: it executes a batch its
// group has already looked up in the shared L1.  An L1-hit load is
// indistinguishable from a plain instruction once the hit is known — one
// issue slot, no write-stage interaction — so a run's hits only add to
// the load counters, and its instructions retire in closed form.
func (m *Machine) stepShared(refs []sref) {
	for _, r := range refs {
		if r.kind == trace.Exec {
			m.c.Loads += uint64(r.hits)
			m.c.L1LoadHits += uint64(r.hits)
			m.execRun(r.arg)
			continue
		}
		m.c.Instructions++
		m.base = m.issueCycle()
		switch r.kind {
		case trace.Load:
			m.c.Loads++
			m.loadMiss(m.clock, mem.Addr(r.arg))
		case trace.Store:
			m.store(mem.Addr(r.arg))
		case trace.Membar:
			m.membar()
		case trace.Release:
			m.release()
		}
	}
}
