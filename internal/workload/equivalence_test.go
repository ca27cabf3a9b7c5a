package workload_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
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
	sum, count := generatorDigest(t, b.Generator(n))
	if count != n {
		t.Errorf("n=%d: stream ended after %d instructions", n, count)
	}
	return sum
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

// derivedDigests pin the decoded sequences of the derived streams the
// extension experiments build from suite benchmarks: concatenation,
// time-sliced interleaving and barrier injection.  They were recorded
// when the combinators were per-reference Streams, so the batched
// combinators must reproduce them exactly: cutting a run-length-encoded Exec run at a
// quantum or period boundary may change the batches, never the decoded
// sequence.  Inject over fft covers a kernel with long Exec runs and a
// producer goroutine, so the run-cutting and Close paths are both hit.
var derivedDigests = map[string][2]uint64{
	"concat li+compress":            {0x6537eeb3f03f0db4, 0x4b5f1a8145491d0f},
	"interleave 1 li+compress":      {0xb48c93a62cf44b12, 0x881ad9e724e68f95},
	"interleave 1000 li+compress":   {0x30d0626b8f403a44, 0x101180da0213611f},
	"interleave 100000 li+compress": {0x6537eeb3f03f0db4, 0xeb724c43869eee9f},
	"inject 0 li":                   {0xec2802bc6932c747, 0x471ee5b86275de17},
	"inject 1 li":                   {0xdf711f481a4bed0b, 0x1b5e52701d92e183},
	"inject 1000 li":                {0x02fe6d77e85fd19f, 0x6e380dce9a1ea055},
	"inject 0 fft":                  {0xe34e5af2ecf69d65, 0x39cde80729d41f26},
	"inject 1 fft":                  {0xff1a003acc163059, 0xcb5cdc91beddb43c},
	"inject 1000 fft":               {0x59a1846a59ece4bd, 0xf8fe2eab4de9acb6},
}

// derivedStreams builds each pinned derived stream of n instructions per
// input share, as the extension experiments do.
func derivedStreams(t *testing.T) map[string]func(n uint64) trace.Generator {
	li, compress, fft := mustBench(t, "li"), mustBench(t, "compress"), mustBench(t, "fft")
	cases := map[string]func(n uint64) trace.Generator{
		"concat li+compress": func(n uint64) trace.Generator {
			return trace.NewConcat(li.Generator(n/2), compress.Generator(n/2))
		},
	}
	for _, q := range []uint64{1, 1000, 100_000} {
		cases[fmt.Sprintf("interleave %d li+compress", q)] = func(n uint64) trace.Generator {
			return trace.NewInterleave(q, li.Generator(n/2), compress.Generator(n/2))
		}
	}
	for _, b := range []workload.Benchmark{li, fft} {
		for _, period := range []uint64{0, 1, 1000} {
			cases[fmt.Sprintf("inject %d %s", period, b.Name)] = func(n uint64) trace.Generator {
				return trace.NewInject(b.Generator(n), trace.Ref{Kind: trace.Membar}, period)
			}
		}
	}
	return cases
}

func mustBench(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q missing", name)
	}
	return b
}

// generatorDigest hashes g's decoded sequence — FNV-64a over (kind byte,
// little-endian 64-bit address) of every dynamic instruction — and counts
// its instructions, then closes g.
func generatorDigest(t *testing.T, g trace.Generator) (sum, count uint64) {
	t.Helper()
	h := fnv.New64a()
	var rec [9]byte
	s := trace.NewGeneratorStream(g)
	for r, ok := s.Next(); ok; r, ok = s.Next() {
		count++
		rec[0] = byte(r.Kind)
		binary.LittleEndian.PutUint64(rec[1:], uint64(r.Addr))
		h.Write(rec[:])
	}
	if c, ok := g.(io.Closer); ok {
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}
	return h.Sum64(), count
}

// TestDerivedGeneratorsMatchParent: every derived stream decodes to the
// sequence recorded from the per-reference combinators.
func TestDerivedGeneratorsMatchParent(t *testing.T) {
	for name, build := range derivedStreams(t) {
		t.Run(name, func(t *testing.T) {
			want, ok := derivedDigests[name]
			if !ok {
				t.Fatalf("no recorded digest for %s", name)
			}
			for i, n := range []uint64{digestShort, digestLong} {
				if got, _ := generatorDigest(t, build(n)); got != want[i] {
					t.Errorf("n=%d: digest %#016x, recorded %#016x", n, got, want[i])
				}
			}
		})
	}
}

// extDigestN is the length at which extDigests pin the extension
// experiments' streams.
const extDigestN = 200_000

// extDigests pin, by name, every stream the extension experiments derive:
// ext-variance's reseeded profiles (seeds 0–4), ext-membar's
// barrier-injected suite (none, 1000, 200, 50), ext-multiprog's pairs
// (none, 100000, 10000, 1000) and ext-analytic's Bernoulli stream.  Each
// value is generatorDigest at extDigestN instructions, recorded from the
// closures the experiments built these streams with before their names
// resolved; kernel benchmarks do not reseed, so their ~s names have no
// entry and must not resolve.
var extDigests = map[string]uint64{
	"espresso~s0":           0x6329768f66a587ea,
	"espresso~s1":           0xf1f56a689b3b9f14,
	"espresso~s2":           0x401f27d8c6e7eb95,
	"espresso~s3":           0x930d32ce838d1e9d,
	"espresso~s4":           0xf2fad47f228a3787,
	"compress~s0":           0x97f0579203d82a14,
	"compress~s1":           0x4ba7b2b97129b1df,
	"compress~s2":           0xcbb085734eae8b2e,
	"compress~s3":           0xa65e6fba706148c9,
	"compress~s4":           0xbcf648346a8645b5,
	"uncompress~s0":         0xbd9e4d0bb6b51078,
	"uncompress~s1":         0x196e7b89e74d0c3d,
	"uncompress~s2":         0x5c0481e29676f8cc,
	"uncompress~s3":         0xc3783265c868267e,
	"uncompress~s4":         0xf8ad6ddd7d311280,
	"sc~s0":                 0x324e7b0641f311c4,
	"sc~s1":                 0x2211fb96ca10a8ce,
	"sc~s2":                 0x5f2ce8d7976c649a,
	"sc~s3":                 0x55da9796fc65afe9,
	"sc~s4":                 0xfde96b3e6d22c766,
	"cc1~s0":                0x817966a7a7bd77f7,
	"cc1~s1":                0x55e7a5a5f31111ee,
	"cc1~s2":                0x7259a948f8a94c8c,
	"cc1~s3":                0x0bb8fe42f75315c7,
	"cc1~s4":                0xc9798724fe043a80,
	"li~s0":                 0xac0e60925b111f36,
	"li~s1":                 0x253497c82f0a6ab3,
	"li~s2":                 0x67c56285d4499bab,
	"li~s3":                 0xf955e25926a37013,
	"li~s4":                 0x008479be7e36b1e5,
	"doduc~s0":              0x7ea27d393f1a855e,
	"doduc~s1":              0x65e255b58faf1444,
	"doduc~s2":              0x0dd0be01bf1f5cf3,
	"doduc~s3":              0x17dbaeb23255f1a5,
	"doduc~s4":              0xdcb1bfc17efba9c3,
	"hydro2d~s0":            0x5157df0387c1bb33,
	"hydro2d~s1":            0xc61b2654132fb615,
	"hydro2d~s2":            0xa1a4942c0ba849a0,
	"hydro2d~s3":            0xba81eb6ec4d1a721,
	"hydro2d~s4":            0xd3acf260994d7120,
	"mdljsp2~s0":            0xefe76dd26de04101,
	"mdljsp2~s1":            0x26e687c060b49444,
	"mdljsp2~s2":            0x0cd41f4fc7914657,
	"mdljsp2~s3":            0xa7e76f9620a377be,
	"mdljsp2~s4":            0xfd1e1155c4dfdd3e,
	"fpppp~s0":              0x410bbe0e705106be,
	"fpppp~s1":              0x379feb4892c84d00,
	"fpppp~s2":              0xf1ae9af670ccce41,
	"fpppp~s3":              0x9cc423b5c38db34b,
	"fpppp~s4":              0x1597d98d727cd30b,
	"mdljdp2~s0":            0x40b9fe859359d92e,
	"mdljdp2~s1":            0xa6690e0e6cbef868,
	"mdljdp2~s2":            0xb8950ca5114bb91c,
	"mdljdp2~s3":            0x3a6497c91fcb9f55,
	"mdljdp2~s4":            0x86021cca1af3b5f2,
	"wave5~s0":              0x79fe63a5fc6b502b,
	"wave5~s1":              0x5f9e98019057612b,
	"wave5~s2":              0xacbdefff35cd0c29,
	"wave5~s3":              0x0e9d25c100b8bf68,
	"wave5~s4":              0x842b213839b82435,
	"su2cor~s0":             0xcefa56ab5dba50be,
	"su2cor~s1":             0x61656cceebd03f0f,
	"su2cor~s2":             0xec49576281afd71f,
	"su2cor~s3":             0x2e86dbc2929dc82a,
	"su2cor~s4":             0x9dc004c53a130815,
	"espresso / none":       0x6329768f66a587ea,
	"espresso / 1000":       0x6097d1bbfd388dfa,
	"espresso / 200":        0x01b2018d67a166a4,
	"espresso / 50":         0xd826c4fd5fd4bad6,
	"compress / none":       0x97f0579203d82a14,
	"compress / 1000":       0x938587ba1100d242,
	"compress / 200":        0x826dcade58e63a52,
	"compress / 50":         0xcd100c82d4eb2ac8,
	"uncompress / none":     0xbd9e4d0bb6b51078,
	"uncompress / 1000":     0xa75cacb905f28288,
	"uncompress / 200":      0x4c4abbdfc2474c6c,
	"uncompress / 50":       0x6bf58ea4705b1c72,
	"sc / none":             0x324e7b0641f311c4,
	"sc / 1000":             0xf3f34c13bd8f4cf6,
	"sc / 200":              0x0497d05ba58b2e10,
	"sc / 50":               0xec6cdbf5976b3df4,
	"cc1 / none":            0x817966a7a7bd77f7,
	"cc1 / 1000":            0x8c345bfc4f828cdd,
	"cc1 / 200":             0x27eafdf9f7a8eac9,
	"cc1 / 50":              0xe47a890392dc4e7d,
	"li / none":             0xac0e60925b111f36,
	"li / 1000":             0xd8fe9085f6317576,
	"li / 200":              0x21c70b7a0315d33e,
	"li / 50":               0x8b42ac9acbbb5c9e,
	"doduc / none":          0x7ea27d393f1a855e,
	"doduc / 1000":          0x48c45190a0eef192,
	"doduc / 200":           0x3dd400a9f642692e,
	"doduc / 50":            0x8b7094b31d294d5e,
	"hydro2d / none":        0x5157df0387c1bb33,
	"hydro2d / 1000":        0x6ed2c3f6ad79f26d,
	"hydro2d / 200":         0xf36b170474fdd43b,
	"hydro2d / 50":          0x24a4ed32728a5a11,
	"mdljsp2 / none":        0xefe76dd26de04101,
	"mdljsp2 / 1000":        0x8504f3cc3c5bf9a7,
	"mdljsp2 / 200":         0x0bc661cf19d00145,
	"mdljsp2 / 50":          0x56c4048f378b2c95,
	"tomcatv / none":        0x794c9a5bac7c45d2,
	"tomcatv / 1000":        0x53133ad8012d6edc,
	"tomcatv / 200":         0x7c6063343ae88204,
	"tomcatv / 50":          0xb5718d7abfdee81a,
	"fpppp / none":          0x410bbe0e705106be,
	"fpppp / 1000":          0x80a92e3ad9b16998,
	"fpppp / 200":           0x47df000cea7bf7a8,
	"fpppp / 50":            0x1fa61f8c4e9c29c8,
	"mdljdp2 / none":        0x40b9fe859359d92e,
	"mdljdp2 / 1000":        0x9b31d287a2496f36,
	"mdljdp2 / 200":         0xe9a42515914ab34e,
	"mdljdp2 / 50":          0x6a504fda2d11e90e,
	"wave5 / none":          0x79fe63a5fc6b502b,
	"wave5 / 1000":          0x66b3232c8a4def35,
	"wave5 / 200":           0x1b5fbf67c23b101f,
	"wave5 / 50":            0x901a1c3da028bce5,
	"su2cor / none":         0xcefa56ab5dba50be,
	"su2cor / 1000":         0xfaabdfe62f197fa2,
	"su2cor / 200":          0xcb0bbf43bc473e48,
	"su2cor / 50":           0xf5a089341db7dc8e,
	"fft / none":            0x2408f1ba85de57f7,
	"fft / 1000":            0xace2b886e0edfa8b,
	"fft / 200":             0xfe3c68aabbf2793d,
	"fft / 50":              0x9634b9a2effbf529,
	"cholsky / none":        0x8e2ea653d4fbc943,
	"cholsky / 1000":        0x6ec82e95c4fd518f,
	"cholsky / 200":         0xd80536b42b4b1e2b,
	"cholsky / 50":          0x6837903d8528707f,
	"gmtry / none":          0x8dc85e2a384975ec,
	"gmtry / 1000":          0xc451571cdff6bc60,
	"gmtry / 200":           0xbe5df9ce4335f986,
	"gmtry / 50":            0xfb61321a560e8370,
	"li+compress / none":    0x7ed89ca95af4535e,
	"li+compress / 100000":  0x7ed89ca95af4535e,
	"li+compress / 10000":   0x71b0eba7568c102e,
	"li+compress / 1000":    0x7991f1ec62ac6e22,
	"sc+hydro2d / none":     0x91cd3ccec941a821,
	"sc+hydro2d / 100000":   0x91cd3ccec941a821,
	"sc+hydro2d / 10000":    0x099932f5c73eca55,
	"sc+hydro2d / 1000":     0x58285a27e09e6dbd,
	"espresso+fft / none":   0x836103151654fb75,
	"espresso+fft / 100000": 0x836103151654fb75,
	"espresso+fft / 10000":  0x0e0af1aaf6b5c445,
	"espresso+fft / 1000":   0x945c4e0f6ba032cd,
	"bernoulli-q0.10":       0xfe621131ea1efee0,
}

// extNames lists the names extDigests pins, in the experiments' order.
func extNames() []string {
	var names []string
	for _, b := range workload.All() {
		for s := 0; s < 5; s++ {
			names = append(names, fmt.Sprintf("%s~s%d", b.Name, s))
		}
	}
	for _, b := range workload.All() {
		names = append(names, b.Name+" / none")
		for _, p := range []int{1000, 200, 50} {
			names = append(names, fmt.Sprintf("%s / %d", b.Name, p))
		}
	}
	for _, pair := range []string{"li+compress", "sc+hydro2d", "espresso+fft"} {
		names = append(names, pair+" / none")
		for _, q := range []int{100_000, 10_000, 1_000} {
			names = append(names, fmt.Sprintf("%s / %d", pair, q))
		}
	}
	return append(names, "bernoulli-q0.10")
}

// TestExtensionStreamsPinned: every stream the extension experiments
// derive resolves by its name and decodes to its recorded sequence.
func TestExtensionStreamsPinned(t *testing.T) {
	pinned := 0
	for _, name := range extNames() {
		b, ok := workload.ByName(name)
		want, pin := extDigests[name]
		if ok != pin {
			t.Errorf("%s: resolves %v, pinned %v", name, ok, pin)
		}
		if !ok || !pin {
			continue
		}
		pinned++
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if got, _ := generatorDigest(t, b.Generator(extDigestN)); got != want {
				t.Errorf("digest %#016x, recorded %#016x", got, want)
			}
		})
	}
	if pinned != len(extDigests) {
		t.Errorf("%d streams checked, %d pinned", pinned, len(extDigests))
	}
}
