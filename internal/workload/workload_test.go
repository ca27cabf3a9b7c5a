package workload

import (
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestRegistryOrder(t *testing.T) {
	want := []string{
		"espresso", "compress", "uncompress", "sc", "cc1", "li",
		"doduc", "hydro2d", "mdljsp2", "tomcatv", "fpppp", "mdljdp2", "wave5", "su2cor",
		"fft", "cholsky", "gmtry",
	}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d benchmarks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i] {
			t.Errorf("position %d: %s, want %s", i, got[i].Name, want[i])
		}
	}
}

func TestGroups(t *testing.T) {
	wantGroups := map[string]Group{
		"espresso": SPECint, "li": SPECint, "doduc": SPECfp,
		"tomcatv": SPECfp, "fft": NASA, "cholsky": NASA, "gmtry": NASA,
	}
	for name, g := range wantGroups {
		b, ok := ByName(name)
		if !ok {
			t.Fatalf("benchmark %q missing", name)
		}
		if b.Group != g {
			t.Errorf("%s group = %v, want %v", name, b.Group, g)
		}
	}
	if SPECint.String() != "SPECint92" || SPECfp.String() != "SPECfp92" || NASA.String() != "NASA" {
		t.Error("group names wrong")
	}
	if Group(9).String() != "group(9)" {
		t.Error("unknown group String wrong")
	}
}

func TestByNameFindsTransformed(t *testing.T) {
	for _, name := range []string{"cholsky-t", "gmtry-t"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("transformed variant %q missing", name)
		}
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName found a benchmark that does not exist")
	}
	if len(Transformed()) != 2 {
		t.Errorf("Transformed() returned %d variants, want 2", len(Transformed()))
	}
}

func TestEveryBenchmarkHasTargets(t *testing.T) {
	all := append(All(), Transformed()...)
	for _, b := range all {
		if b.Target.PctLoads == 0 || b.Target.L1HitRate == 0 {
			t.Errorf("%s has empty targets", b.Name)
		}
	}
}

func TestStreamExactLength(t *testing.T) {
	all := append(All(), Transformed()...)
	for _, b := range all {
		n := uint64(0)
		s := b.Stream(10_000)
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			n++
		}
		if n != 10_000 {
			t.Errorf("%s stream yielded %d refs, want 10000", b.Name, n)
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	all := append(All(), Transformed()...)
	for _, b := range all {
		a, c := b.Stream(5_000), b.Stream(5_000)
		for i := 0; ; i++ {
			ra, oka := a.Next()
			rc, okc := c.Next()
			if oka != okc || ra != rc {
				t.Errorf("%s diverges at ref %d: %v/%v vs %v/%v", b.Name, i, ra, oka, rc, okc)
				break
			}
			if !oka {
				break
			}
		}
	}
}

func TestStreamsDistinct(t *testing.T) {
	// Different benchmarks must not produce identical streams.
	a := trace.MeasureMix(mustStream(t, "espresso", 20_000))
	b := trace.MeasureMix(mustStream(t, "li", 20_000))
	if a == b {
		t.Error("espresso and li produced identical mixes; seeds look shared")
	}
}

func mustStream(t *testing.T, name string, n uint64) trace.Stream {
	t.Helper()
	b, ok := ByName(name)
	if !ok {
		t.Fatalf("benchmark %q missing", name)
	}
	return b.Stream(n)
}

func TestSynthMixMatchesTargets(t *testing.T) {
	// The block-probability algebra must deliver the requested mix for
	// arbitrary profiles, not just the registered ones.
	p := Profile{
		Seed: 42, PctLoad: 30, PctStore: 15,
		ExecRun: 4, LoadRun: 2, StoreBurst: 6,
		LoadHot: 0.9, HotLines: 100, WarmLines: 1000, FarLines: 1000, FarFrac: 0.1,
		StoreSeq: 0.5, StoreLines: 500, SeqRegionLines: 2048,
	}
	m := trace.MeasureMix(trace.NewGeneratorStream(newSynth(p, 200_000)))
	if got := m.PctLoads(); got < 28.5 || got > 31.5 {
		t.Errorf("loads = %.2f%%, want ~30%%", got)
	}
	if got := m.PctStores(); got < 13.5 || got > 16.5 {
		t.Errorf("stores = %.2f%%, want ~15%%", got)
	}
}

func TestKernelStreamRepeats(t *testing.T) {
	// A stream longer than one kernel execution must keep producing by
	// restarting the kernel body.
	calls := 0
	s := trace.NewGeneratorStream(newKernelGen(100, func(e *Emitter) {
		calls++
		e.Exec(30)
	}))
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != 100 {
		t.Fatalf("stream yielded %d, want 100", n)
	}
	if calls < 4 {
		t.Fatalf("kernel body ran %d times, want >= 4", calls)
	}
}

func TestKernelStreamEmptyBody(t *testing.T) {
	// A body that emits nothing must terminate, not spin.
	s := trace.NewGeneratorStream(newKernelGen(50, func(e *Emitter) {}))
	if _, ok := s.Next(); ok {
		t.Fatal("empty kernel produced a reference")
	}
}

func TestMatrixAddressing(t *testing.T) {
	rm := matrix{base: 0x1000, lda: 10, rowMajor: true}
	cm := matrix{base: 0x1000, lda: 10, rowMajor: false}
	if rm.at(2, 3) != 0x1000+(2*10+3)*8 {
		t.Errorf("row-major at(2,3) = %#x", rm.at(2, 3))
	}
	if cm.at(2, 3) != 0x1000+(3*10+2)*8 {
		t.Errorf("column-major at(2,3) = %#x", cm.at(2, 3))
	}
	// Unit stride direction check.
	if rm.at(2, 4)-rm.at(2, 3) != 8 {
		t.Error("row-major rows must be contiguous")
	}
	if cm.at(3, 3)-cm.at(2, 3) != 8 {
		t.Error("column-major columns must be contiguous")
	}
}

func TestHotTableRate(t *testing.T) {
	h := newHotTable(3, 2, 8, 1)
	counts := 0
	e := &Emitter{out: make(chan []trace.Ref, 1000), left: 1 << 20, chunk: make([]trace.Ref, 0, emitChunk)}
	for i := 0; i < 100; i++ {
		h.emit(e)
	}
	counts = len(e.chunk)
	if counts != 150 {
		t.Errorf("hot table emitted %d loads over 100 iterations at rate 3/2, want 150", counts)
	}
	// Disabled table emits nothing.
	h0 := newHotTable(0, 0, 8, 1)
	before := len(e.chunk)
	h0.emit(e)
	if len(e.chunk) != before {
		t.Error("disabled hot table emitted a load")
	}
}

func TestSpillCoalesces(t *testing.T) {
	sp := spill{words: 16, cluster: 3}
	e := &Emitter{out: make(chan []trace.Ref, 10), left: 1 << 20, chunk: make([]trace.Ref, 0, emitChunk)}
	sp.emit(e)
	refs := e.chunk
	if len(refs) != 4 { // 1 load + 3 stores
		t.Fatalf("spill emitted %d refs, want 4", len(refs))
	}
	line := refs[1].Addr &^ 31
	for _, r := range refs[1:] {
		if r.Addr&^31 != line {
			t.Error("spill cluster crossed a line boundary")
		}
	}
}

func TestProfileValidate(t *testing.T) {
	valid := Profile{
		PctLoad: 20, PctStore: 10, ExecRun: 4, LoadRun: 2, StoreBurst: 3,
		LoadHot: 0.9, LoadRecent: 0.02, HotLines: 200,
		WarmLines: 100, FarLines: 100, FarFrac: 0.05,
		StoreSeq: 0.5, StoreLines: 100, SeqRegionLines: 100,
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	mutations := []func(*Profile){
		func(p *Profile) { p.PctLoad = 70; p.PctStore = 40 },
		func(p *Profile) { p.ExecRun = 0 },
		func(p *Profile) { p.LoadHot = 1.2 },
		func(p *Profile) { p.LoadHot = 0.99; p.LoadRecent = 0.5 },
		func(p *Profile) { p.HotLines = 300 },
		func(p *Profile) { p.HotLines = 0 },
		func(p *Profile) { p.WarmLines = 0 },
		func(p *Profile) { p.StoreSeq = -0.1 },
	}
	for i, mutate := range mutations {
		p := valid
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestAllRegisteredProfilesValid(t *testing.T) {
	for _, np := range syntheticProfiles {
		if err := np.Profile.Validate(); err != nil {
			t.Errorf("%s: %v", np.Name, err)
		}
	}
}

// TestDeriveNamesNeverResolve: a derived name never answers as a
// registered one, or name-keyed execution would run the wrong stream.  No
// registered name parses as a derived one, a derived name that resolves is
// not registered, and a non-canonical spelling of a derived name does not
// resolve at all.
func TestDeriveNamesNeverResolve(t *testing.T) {
	for _, list := range [][]Benchmark{All(), Transformed(), Scenarios()} {
		for _, b := range list {
			if _, ok := derive(b.Name); ok {
				t.Errorf("registered name %q also parses as a derived one", b.Name)
			}
		}
	}
	for _, name := range []string{"li~s1", "li / none", "li / 1000", "li+compress / none", "espresso+fft / 1000", "bernoulli-q0.10"} {
		b, ok := ByName(name)
		if _, reg := registered(name); !ok || reg || b.Name != name {
			t.Errorf("%q: resolves %v as %q, registered %v", name, ok, b.Name, reg)
		}
	}
	for _, name := range []string{"li /1000", "li / 01000", "li / 0", "li~s01", "fft~s1", "bernoulli-q0.1"} {
		if _, ok := ByName(name); ok {
			t.Errorf("non-canonical %q resolves by name", name)
		}
	}
}

func TestReseeded(t *testing.T) {
	li, _ := ByName("li")
	r1, ok := ByName("li~s1")
	if !ok {
		t.Fatal("li should be reseedable")
	}
	r2, _ := ByName("li~s2")
	// Different seeds → different streams; same seed → same stream.
	a, b, c := r1.Stream(2000), r2.Stream(2000), li.Stream(2000)
	diff12, diffBase := false, false
	for i := 0; i < 2000; i++ {
		x, _ := a.Next()
		y, _ := b.Next()
		z, _ := c.Next()
		if x != y {
			diff12 = true
		}
		if x != z {
			diffBase = true
		}
	}
	if !diff12 || !diffBase {
		t.Error("reseeded streams did not diverge")
	}
	for _, name := range []string{"fft~s1", "burstw~s1"} {
		if _, ok := ByName(name); ok {
			t.Errorf("%s resolves: only profile-driven suite benchmarks reseed", name)
		}
	}
}

// FuzzByName: no name panics ByName.  A name that resolves to a derived
// stream is its own canonical spelling, shadows no registered benchmark,
// and generates exactly n instructions plus, for barrier injection, one
// membar per period.
func FuzzByName(f *testing.F) {
	for _, name := range []string{
		"", "li", "li~s1", "li~s01", "fft~s1", "burstw~s1", "li~s1 / 50",
		"li / none", "li / 1000", "li /1000", "li / 01000", "li / 0", "fenceprod / 1",
		"li+compress / none", "espresso+fft / 1000", "gmtry-t+burstw / 7", "li+li+li / 3",
		"bernoulli-q0.10", "bernoulli-q0.1", "bernoulli-q1.00", "bernoulli-q0.00",
	} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		b, ok := ByName(name)
		if _, reg := registered(name); !ok || reg {
			return
		}
		if b.Name != name {
			t.Fatalf("%q resolves as %q", name, b.Name)
		}
		const n = 1001
		want := uint64(n)
		if lhs, rhs, ok := strings.Cut(name, " / "); ok && !strings.Contains(lhs, "+") && rhs != "none" {
			p, _ := strconv.ParseUint(rhs, 10, 64)
			want += n / p
		}
		g := b.Generator(n)
		defer closeGen(g)
		buf := make([]trace.Ref, 64)
		var got uint64
		for k := g.Fill(buf); k > 0; k = g.Fill(buf) {
			for _, r := range buf[:k] {
				got += r.InstrCount()
			}
		}
		if got != want {
			t.Fatalf("%q: Generator(%d) yields %d instructions, want %d", name, n, got, want)
		}
	})
}

func closeGen(g trace.Generator) {
	if c, ok := g.(io.Closer); ok {
		c.Close()
	}
}
