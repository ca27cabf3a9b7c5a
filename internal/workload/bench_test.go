package workload

import (
	"testing"

	"repro/internal/trace"
)

// Generator throughput matters: it runs inline with the simulator, so a
// slow generator would cap experiment speed.
func benchmarkStream(b *testing.B, name string) {
	b.Helper()
	bench, ok := ByName(name)
	if !ok {
		b.Fatalf("benchmark %q missing", name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := bench.Stream(100_000)
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
	}
	b.SetBytes(100_000)
}

func BenchmarkSyntheticGenerator(b *testing.B) { benchmarkStream(b, "li") }
func BenchmarkKernelCholsky(b *testing.B)      { benchmarkStream(b, "cholsky") }
func BenchmarkKernelFFT(b *testing.B)          { benchmarkStream(b, "fft") }
func BenchmarkKernelTomcatv(b *testing.B)      { benchmarkStream(b, "tomcatv") }

// BenchmarkDerivedGenerators prices the derived streams the extension
// experiments build: li's references drawn through its own generator and
// through each combinator, in ns per li instruction.
func BenchmarkDerivedGenerators(b *testing.B) {
	const n = 2_000_000
	li, ok := ByName("li")
	if !ok {
		b.Fatal("benchmark li missing")
	}
	membar := trace.Ref{Kind: trace.Membar}
	for _, path := range []struct {
		name string
		gen  func() trace.Generator
	}{
		{"own", func() trace.Generator { return li.Generator(n) }},
		{"concat", func() trace.Generator { return trace.NewConcat(li.Generator(n/2), li.Generator(n/2)) }},
		{"interleave-1000", func() trace.Generator {
			return trace.NewInterleave(1000, li.Generator(n/2), li.Generator(n/2))
		}},
		{"inject-1000", func() trace.Generator { return trace.NewInject(li.Generator(n), membar, 1000) }},
	} {
		b.Run(path.name, func(b *testing.B) {
			buf := make([]trace.Ref, 4096) // the simulator's batch size
			for i := 0; i < b.N; i++ {
				g := path.gen()
				for k := g.Fill(buf); k > 0; k = g.Fill(buf) {
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/instr")
		})
	}
}
