package dispatch

import (
	"context"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// cacheBenches is every registered benchmark plus one stream of each
// derived kind.
func cacheBenches(t *testing.T) []workload.Benchmark {
	bs := workload.All()
	for _, name := range []string{"cholsky-t", "gmtry-t", "burstw", "fenceprod", "li / 1000", "espresso+fft / 1000", "li~s1", "bernoulli-q0.10"} {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("%q does not resolve", name)
		}
		bs = append(bs, b)
	}
	return bs
}

// cacheRow is a three-machine row: two machines that share L1 lookups and
// one that does not.
func cacheRow(bench string, n uint64, k int) []Job {
	cfgs := []sim.Config{
		sim.Baseline(),
		sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB),
		sim.Baseline().WithDepth(8),
	}
	jobs := make([]Job, k)
	for i := range jobs {
		jobs[i] = Job{Bench: bench, Label: string(rune('a' + i)), Cfg: cfgs[i], N: n}
	}
	return jobs
}

// uncached runs jobs as one ExecuteRow, which never touches the cache.
func uncached(t *testing.T, b workload.Benchmark, jobs []Job) []Measurement {
	t.Helper()
	var labels []string
	var cfgs []sim.Config
	for _, j := range jobs {
		labels = append(labels, j.Label)
		cfgs = append(cfgs, j.Cfg)
	}
	ms, _, err := ExecuteRow(context.Background(), b, labels, cfgs, jobs[0].N, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func checkRow(t *testing.T, what string, got []RowResult, want []Measurement) {
	t.Helper()
	for i, r := range got {
		if r.Err != nil || !reflect.DeepEqual(r.M, want[i]) {
			t.Errorf("%s, job %d: %+v (err %v), want %+v", what, i, r.M, r.Err, want[i])
		}
	}
}

// TestStreamCacheByteIdentical: the first row, the recording row and every
// replayed row equal an uncached ExecuteRow field for field, one- and
// three-machine rows alike, for every benchmark and each kind of derived
// stream.
func TestStreamCacheByteIdentical(t *testing.T) {
	for _, b := range cacheBenches(t) {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			c := newStreamCache(StreamCacheBudget)
			local := &Local{streams: c}
			for i, n := range []uint64{20_000, 50_001} {
				one, three := cacheRow(b.Name, n, 1), cacheRow(b.Name, n, 3)
				want1, want3 := uncached(t, b, one), uncached(t, b, three)
				record, recordWant := one, want1
				if i == 1 {
					record, recordWant = three, want3
				}
				checkRow(t, "first row", local.RunRow(context.Background(), record), recordWant)
				checkRow(t, "recording row", local.RunRow(context.Background(), record), recordWant)
				if _, hit := c.generator(b, n); !hit {
					t.Fatalf("n=%d: not cached after its recording row", n)
				}
				checkRow(t, "replayed K=1 row", local.RunRow(context.Background(), one), want1)
				checkRow(t, "replayed K=3 row", local.RunRow(context.Background(), three), want3)
			}
		})
	}
}

// countdown is a context that reports cancellation after its first left
// Err calls: a row checks it before every Fill, so it cancels a row
// part-way through its stream.
type countdown struct {
	context.Context
	left int
}

func (c *countdown) Err() error {
	if c.left > 0 {
		c.left--
		return nil
	}
	return context.Canceled
}

// TestStreamCacheCancelPublishesNothing: a row cancelled mid-recording
// admits nothing, so the next row is a miss that still matches, and a
// kernel's producer goroutine does not outlive the cancelled row.
func TestStreamCacheCancelPublishesNothing(t *testing.T) {
	for _, name := range []string{"li", "fft", "espresso+fft / 1000"} {
		b, _ := workload.ByName(name)
		c := newStreamCache(StreamCacheBudget)
		local := &Local{streams: c}
		jobs := cacheRow(name, 200_000, 3)
		before := runtime.NumGoroutine()
		for i := 0; i < 20; i++ {
			for _, r := range local.RunRow(&countdown{context.Background(), 4}, jobs) {
				if r.Err != context.Canceled {
					t.Fatalf("%s: cancelled row: err = %v, want context.Canceled", name, r.Err)
				}
			}
		}
		if !goroutinesSettle(before) {
			t.Errorf("%s: %d goroutines after 20 cancelled rows, %d before", name, runtime.NumGoroutine(), before)
		}
		if st, _ := c.state(name, 200_000); st == recorded || len(c.recording) != 0 {
			t.Fatalf("%s: cancelled rows left a stream cached or %d recordings open", name, len(c.recording))
		}
		checkRow(t, name+" row after cancellations", local.RunRow(context.Background(), jobs), uncached(t, b, jobs))
		if st, _ := c.state(name, 200_000); st != recorded {
			t.Errorf("%s: a completed row after the cancellations cached nothing", name)
		}
	}
}

// TestStreamCacheConcurrentMisses: a key's first miss does not record; of
// two misses on it after that, only the first records; the second generates on its own without waiting, both
// match, and the key is then a hit.  Rows racing on one key from several
// goroutines also all match.
func TestStreamCacheConcurrentMisses(t *testing.T) {
	b, _ := workload.ByName("fft")
	const n = 30_000
	c := newStreamCache(StreamCacheBudget)
	want := drain(b.Generator(n))
	g0, _ := c.generator(b, n)
	if _, ok := g0.(*recorder); ok {
		t.Fatal("a key's first miss records")
	}
	if got := drain(g0); !reflect.DeepEqual(got, want) {
		t.Error("first miss: stream differs from the generator's")
	}
	g1, hit1 := c.generator(b, n)
	g2, hit2 := c.generator(b, n)
	if hit1 || hit2 {
		t.Fatal("a key nobody has recorded hit")
	}
	if _, ok := g1.(*recorder); !ok {
		t.Fatalf("first miss got %T, want a recorder", g1)
	}
	if _, ok := g2.(*recorder); ok {
		t.Fatal("second concurrent miss records too")
	}
	for i, g := range []trace.Generator{g1, g2} {
		if got := drain(g); !reflect.DeepEqual(got, want) {
			t.Errorf("miss %d: stream differs from the generator's", i+1)
		}
	}
	if g, hit := c.generator(b, n); !hit || !reflect.DeepEqual(drain(g), want) {
		t.Error("the recorded key does not replay its stream")
	}

	c = newStreamCache(StreamCacheBudget)
	local := &Local{streams: c}
	jobs := cacheRow("li", 40_000, 3)
	b, _ = workload.ByName("li")
	wantRow := uncached(t, b, jobs)
	checkRow(t, "row before the race", local.RunRow(context.Background(), jobs), wantRow)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range local.RunRow(context.Background(), jobs) {
				if r.Err != nil {
					t.Error(r.Err)
				}
			}
		}()
	}
	wg.Wait()
	checkRow(t, "row after the race", local.RunRow(context.Background(), jobs), wantRow)
	if len(c.entries) != 1 || len(c.recording) != 0 {
		t.Errorf("%d entries and %d open recordings after the race, want 1 and 0", len(c.entries), len(c.recording))
	}
}

// state returns the state of the entry for (bench, n), if there is one.
func (c *streamCache) state(bench string, n uint64) (entryState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[streamKey{bench, n}]; ok {
		return e.Value.(*cachedStream).state, true
	}
	return 0, false
}

// drain returns every ref g yields, in 1000-ref batches, and closes it.
func drain(g trace.Generator) []trace.Ref {
	var out []trace.Ref
	buf := make([]trace.Ref, 1000)
	for n := g.Fill(buf); n > 0; n = g.Fill(buf) {
		out = append(out, buf[:n]...)
	}
	if c, ok := g.(io.Closer); ok {
		c.Close()
	}
	return out
}

// TestStreamCacheBudget: admitting a stream evicts the least recently
// used ones until the cache fits; recordings in flight reserve their
// chunks from the same budget, so the cache and its recordings together
// never hold more than it; and a stream larger than the whole budget is
// recorded at most once, on its second request, and then generated
// without a recorder.
func TestStreamCacheBudget(t *testing.T) {
	const budget = 4 * streamChunk
	c := newStreamCache(budget)
	check := func(what string) {
		t.Helper()
		if c.size() > budget {
			t.Fatalf("%s: %d bytes cached or reserved, budget %d", what, c.size(), budget)
		}
	}
	for _, name := range []string{"li", "compress", "espresso", "fft", "li", "tomcatv", "su2cor", "gmtry"} {
		b, _ := workload.ByName(name)
		for range 2 {
			g, _ := c.generator(b, 20_000)
			drain(g)
			check("after " + name)
		}
	}
	if len(c.entries) < 2 || len(c.entries) > 6 {
		t.Fatalf("%d streams cached, want some evicted", len(c.entries))
	}

	// Six recordings at once, each needing two or more chunks, filled in
	// turn: their reservations and the admitted streams stay inside the
	// budget, and the recordings that found no room admit nothing.
	names := []string{"compress", "espresso", "cc1", "doduc", "hydro2d", "mdljsp2"}
	var gs []trace.Generator
	for _, name := range names {
		b, _ := workload.ByName(name)
		g, _ := c.generator(b, 60_000)
		drain(g) // the first miss marks the key seen
		g, hit := c.generator(b, 60_000)
		if _, ok := g.(*recorder); hit || !ok {
			t.Fatalf("%s: first miss got %T, want a recorder", name, g)
		}
		gs = append(gs, g)
	}
	buf := make([]trace.Ref, 500)
	for live := len(gs); live > 0; {
		live = 0
		for _, g := range gs {
			if g.Fill(buf) > 0 {
				live++
			}
			check("while six recordings run")
		}
	}
	if len(c.recording) != 0 {
		t.Fatalf("%d recordings still open", len(c.recording))
	}
	stopped := 0
	for _, name := range names {
		switch st, _ := c.state(name, 60_000); st {
		case uncacheable:
			t.Errorf("%s: a recording stopped for want of room was marked uncacheable", name)
		case seenOnce:
			stopped++
		}
		b, _ := workload.ByName(name)
		g, _ := c.generator(b, 60_000)
		want := drain(b.Generator(60_000))
		if got := drain(g); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stream after the concurrent recordings differs", name)
		}
		check("after " + name + " again")
	}
	if stopped == 0 {
		t.Error("six recordings of two chunks each all found room in four")
	}

	b, _ := workload.ByName("li")
	want := drain(b.Generator(200_000))
	for i := 1; i <= 4; i++ {
		g, hit := c.generator(b, 200_000)
		_, rec := g.(*recorder)
		if hit || rec != (i == 2) {
			t.Fatalf("over-budget request %d: got %T (hit %v), want a recorder only the second time", i, g, hit)
		}
		if got := drain(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("over-budget request %d: stream differs", i)
		}
		check("after an over-budget stream")
	}
}

// FuzzStreamCodec: any reference sequence either replays exactly, at any
// batch size, or is declined by the recorder.
func FuzzStreamCodec(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(7))
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(1))
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f, 2, 3, 0, 0, 0, 0, 0, 0, 0x80}, uint16(300))
	f.Fuzz(func(t *testing.T, data []byte, batch uint16) {
		// Each ref is a kind byte and eight address bytes; a short tail
		// reuses what is there.
		var refs []trace.Ref
		for len(data) > 0 {
			var a [8]byte
			copy(a[:], data[1:])
			var addr uint64
			for i := 7; i >= 0; i-- {
				addr = addr<<8 | uint64(a[i])
			}
			refs = append(refs, trace.Ref{Kind: trace.Kind(data[0] % 10), Addr: mem.Addr(addr)})
			data = data[min(len(data), 9):]
		}
		size := int(batch%512) + 1
		c := newStreamCache(1 << 20)
		b := workload.Benchmark{Name: "fuzz"}
		rec := &recorder{g: trace.NewSliceStream(refs), c: c, key: streamKey{b.Name, 1}, live: true}
		c.recording[rec.key] = true
		got := drain(rec)
		if !reflect.DeepEqual(got, refs) && len(refs) > 0 {
			t.Fatal("the recorder changed the stream it passed on")
		}
		e, ok := c.entries[rec.key]
		if !ok {
			t.Fatal("a finished recording left no entry")
		}
		s := e.Value.(*cachedStream)
		if s.state == uncacheable {
			return // declined
		}
		r := &replay{chunks: s.chunks, left: s.refs}
		var out []trace.Ref
		buf := make([]trace.Ref, size)
		for n := r.Fill(buf); n > 0; n = r.Fill(buf) {
			out = append(out, buf[:n]...)
		}
		if len(out) != len(refs) {
			t.Fatalf("replayed %d refs, recorded %d", len(out), len(refs))
		}
		for i := range refs {
			if out[i] != refs[i] {
				t.Fatalf("ref %d replayed as %+v, recorded %+v", i, out[i], refs[i])
			}
		}
	})
}

// BenchmarkStreamCache reports the per-reference cost of each way a row
// gets its stream, over the suite at n = 50 000: generating it, generating
// and recording it (a seen key's miss), and replaying the recording (a
// hit).
func BenchmarkStreamCache(b *testing.B) {
	const n = 50_000
	buf := make([]trace.Ref, 4096)
	run := func(b *testing.B, c *streamCache, gen func(workload.Benchmark) trace.Generator) {
		refs := 0
		for i := 0; i < b.N; i++ {
			for _, bench := range workload.All() {
				g := gen(bench)
				for k := g.Fill(buf); k > 0; k = g.Fill(buf) {
					refs += k
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
		if c != nil {
			b.ReportMetric(float64(c.size())/float64(refs/b.N), "B/ref")
		}
	}
	b.Run("generate", func(b *testing.B) {
		run(b, nil, func(w workload.Benchmark) trace.Generator { return w.Generator(n) })
	})
	b.Run("record", func(b *testing.B) {
		c := newStreamCache(1 << 30)
		run(b, nil, func(w workload.Benchmark) trace.Generator {
			if w.Name == workload.All()[0].Name {
				c = newStreamCache(1 << 30) // every pass records afresh
				for _, w := range workload.All() {
					c.admit(&cachedStream{key: streamKey{w.Name, n}, state: seenOnce})
				}
			}
			g, _ := c.generator(w, n)
			return g
		})
	})
	b.Run("replay", func(b *testing.B) {
		c := newStreamCache(1 << 30)
		for _, w := range workload.All() {
			g, _ := c.generator(w, n)
			drain(g)
		}
		b.ResetTimer()
		run(b, c, func(w workload.Benchmark) trace.Generator {
			g, _ := c.generator(w, n)
			return g
		})
	})
}

// BenchmarkStreamCacheRow times one-machine rows over the suite at n near
// 50 000 three ways: uncached (ExecuteRow), cold through Local (a distinct
// n on every pass, so every row records and the full cache evicts) and
// warm through Local (one n, so every row replays).
func BenchmarkStreamCacheRow(b *testing.B) {
	const n = 50_000
	rows := func(b *testing.B, run func(jobs []Job, i int)) {
		for i := 0; i < b.N; i++ {
			for _, w := range workload.All() {
				run(cacheRow(w.Name, n+uint64(i), 1), i)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(workload.All())), "µs/row")
	}
	b.Run("uncached", func(b *testing.B) {
		rows(b, func(jobs []Job, _ int) {
			w, _ := workload.ByName(jobs[0].Bench)
			if _, _, err := ExecuteRow(context.Background(), w, []string{"a"}, []sim.Config{jobs[0].Cfg}, jobs[0].N, nil, nil); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("cold", func(b *testing.B) {
		local := &Local{streams: newStreamCache(StreamCacheBudget)}
		rows(b, func(jobs []Job, _ int) { local.RunRow(context.Background(), jobs) })
	})
	b.Run("warm", func(b *testing.B) {
		local := &Local{streams: newStreamCache(StreamCacheBudget)}
		rows(b, func(jobs []Job, _ int) {
			jobs[0].N = n
			local.RunRow(context.Background(), jobs)
		})
	})
}
