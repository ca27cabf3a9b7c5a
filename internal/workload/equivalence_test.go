package workload_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// Stream digests pin every benchmark's decoded reference sequence.  Each
// value is an FNV-64a hash over (kind byte, little-endian 64-bit address)
// of every dynamic instruction, at digestShort instructions (the
// initialisation sweep is cut off by its n/6 budget) and digestLong (every
// sweep runs to completion).  The values were recorded from the
// per-reference Next producers the workloads had before Generator became
// their only interface, so a change to any generated stream — a moved RNG
// draw, a reordered sweep, a dropped barrier — fails here rather than
// shifting every figure silently.  Regenerate them only for an intended
// stream change, and say so.
const (
	digestShort = 6_000
	digestLong  = 400_000
)

var streamDigests = map[string][2]uint64{
	"espresso":   {0x02cc9f3372d8de90, 0x73cb2843907fb569},
	"compress":   {0x458adf28e6764127, 0x87c4352b63406684},
	"uncompress": {0x6c6349dfa0a5f4de, 0xb6c771f4ca27b37c},
	"sc":         {0x551ba8be98273f24, 0xff2aa9cacf931967},
	"cc1":        {0xbfe00236fe2c6da1, 0x5e0a5057d1b0c62c},
	"li":         {0xec2802bc6932c747, 0x471ee5b86275de17},
	"doduc":      {0x2aba87501af584b2, 0x889dddad1a01b50f},
	"hydro2d":    {0xbd6e155c1bb791b8, 0x5c1d5ccb2e7c9876},
	"mdljsp2":    {0x0af73fe213a802fe, 0x4deb099eee931161},
	"tomcatv":    {0x456d857fed4a8f7c, 0xc38d10edaacdd37f},
	"fpppp":      {0xf99e2e73c03c2e50, 0x724b5b6f1b9bb0dd},
	"mdljdp2":    {0xfbedf261bf9a24ab, 0x6794f6316df81570},
	"wave5":      {0x767664aa763ea6e4, 0x2afacee35659b3bb},
	"su2cor":     {0x1fc349234582f362, 0x749b6dc6ac5b3065},
	"fft":        {0xe34e5af2ecf69d65, 0x39cde80729d41f26},
	"cholsky":    {0x314c77657282470a, 0x827801c4bda31926},
	"gmtry":      {0x1e4d4fa6c886b79b, 0xd425f063a56a8cc9},
	"cholsky-t":  {0x388a0871fd5e7f00, 0x82b40d135543717c},
	"gmtry-t":    {0xbaa9d2ccf7490faf, 0x9473075bf2a36a3f},
	"burstw":     {0xac92796f38a4552d, 0x27501f69c42af7e8},
	"fenceprod":  {0xb3a9337cc34039b6, 0xdc3df1ccefc39415},
}

// streamDigest hashes the first n decoded references of b.
func streamDigest(t *testing.T, b workload.Benchmark, n uint64) uint64 {
	t.Helper()
	h := fnv.New64a()
	var rec [9]byte
	s := b.Stream(n)
	var count uint64
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		count++
		rec[0] = byte(r.Kind)
		binary.LittleEndian.PutUint64(rec[1:], uint64(r.Addr))
		h.Write(rec[:])
	}
	if count != n {
		t.Errorf("n=%d: stream ended after %d instructions", n, count)
	}
	return h.Sum64()
}

// checkStreamDigests compares each benchmark's decoded sequences with the
// recorded digests.
func checkStreamDigests(t *testing.T, benches []workload.Benchmark) {
	for _, b := range benches {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			want, ok := streamDigests[b.Name]
			if !ok {
				t.Fatalf("no recorded digest for %s", b.Name)
			}
			for i, n := range []uint64{digestShort, digestLong} {
				if got := streamDigest(t, b, n); got != want[i] {
					t.Errorf("n=%d: stream digest %#016x, recorded %#016x", n, got, want[i])
				}
			}
		})
	}
}

// TestGeneratorMatchesStream: every paper benchmark and Table 6 variant
// generates exactly the reference sequence it was recorded with.
func TestGeneratorMatchesStream(t *testing.T) {
	checkStreamDigests(t, append(workload.All(), workload.Transformed()...))
}

// TestGeneratorBatchInstrCounts: the generator view must account for
// exactly n dynamic instructions under run-length encoding — the count
// the simulator's instruction budget and MIPS numbers rely on.
func TestGeneratorBatchInstrCounts(t *testing.T) {
	const n = 12_345
	for _, b := range workload.All() {
		g := b.Generator(n)
		buf := make([]trace.Ref, 257) // off power-of-two to exercise batch edges
		var total uint64
		for {
			k := g.Fill(buf)
			if k == 0 {
				break
			}
			for _, r := range buf[:k] {
				total += r.InstrCount()
			}
		}
		if total != n {
			t.Errorf("%s: generator accounts for %d instructions, want %d", b.Name, total, n)
		}
	}
}
