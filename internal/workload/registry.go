package workload

import "repro/internal/trace"

// The paper's measurements (Tables 4 and 5), kept verbatim as calibration
// targets.
var paperTargets = map[string]Target{
	"espresso":   {PctLoads: 19.6, PctStores: 5.1, L1HitRate: 94.73, WBHitRate: 45.65},
	"compress":   {PctLoads: 22.7, PctStores: 8.6, L1HitRate: 82.52, WBHitRate: 38.81},
	"uncompress": {PctLoads: 22.6, PctStores: 8.4, L1HitRate: 92.10, WBHitRate: 21.22},
	"sc":         {PctLoads: 27.2, PctStores: 11.4, L1HitRate: 91.00, WBHitRate: 61.73},
	"cc1":        {PctLoads: 20.2, PctStores: 10.5, L1HitRate: 93.33, WBHitRate: 47.46},
	"li":         {PctLoads: 28.4, PctStores: 16.2, L1HitRate: 91.96, WBHitRate: 41.40},
	"doduc":      {PctLoads: 22.4, PctStores: 6.8, L1HitRate: 88.89, WBHitRate: 46.65},
	"hydro2d":    {PctLoads: 21.9, PctStores: 8.7, L1HitRate: 84.29, WBHitRate: 44.68},
	"mdljsp2":    {PctLoads: 21.1, PctStores: 6.0, L1HitRate: 96.84, WBHitRate: 7.41},
	"tomcatv":    {PctLoads: 27.5, PctStores: 8.0, L1HitRate: 63.93, WBHitRate: 30.05},
	"fpppp":      {PctLoads: 33.8, PctStores: 12.7, L1HitRate: 89.88, WBHitRate: 35.13},
	"mdljdp2":    {PctLoads: 14.5, PctStores: 7.6, L1HitRate: 85.11, WBHitRate: 7.79},
	"wave5":      {PctLoads: 20.8, PctStores: 13.9, L1HitRate: 89.44, WBHitRate: 39.32},
	"su2cor":     {PctLoads: 24.3, PctStores: 11.0, L1HitRate: 45.82, WBHitRate: 23.56},
	"fft":        {PctLoads: 21.2, PctStores: 21.0, L1HitRate: 57.14, WBHitRate: 50.93},
	"cholsky":    {PctLoads: 30.5, PctStores: 12.8, L1HitRate: 48.77, WBHitRate: 32.29},
	"gmtry":      {PctLoads: 35.7, PctStores: 12.4, L1HitRate: 43.23, WBHitRate: 9.76},
	// Table 6, after the Lebeck & Wood transformations.
	"cholsky-t": {PctLoads: 30.5, PctStores: 12.8, L1HitRate: 82.1, WBHitRate: 73.5},
	"gmtry-t":   {PctLoads: 35.7, PctStores: 12.4, L1HitRate: 88.5, WBHitRate: 72.2},
}

// namedProfile pairs a synthetic profile with its registry identity, so the
// calibration harness can iterate on the tunable knobs programmatically.
type namedProfile struct {
	Name    string
	Group   Group
	Profile Profile
}

// syntheticProfiles holds the 13 profile-driven benchmarks.  LoadHot and
// StoreSeq were calibrated against Tables 4 and 5 by the harness in
// calibrate_test.go (see TestAutoCalibrate); the remaining knobs were set
// from the paper's qualitative description of each program.
var syntheticProfiles = []namedProfile{
	// ── SPECint92 ────────────────────────────────────────────────────
	{"espresso", SPECint, Profile{
		Seed: 101, PctLoad: 19.6, PctStore: 5.1,
		ExecRun: 4, LoadRun: 2.5, StoreBurst: 2,
		LoadHot: 0.971, LoadRecent: 0.004, HotLines: 224,
		WarmLines: 2000, FarLines: 1200, FarFrac: 0.03,
		StoreSeq: 0.763, StoreLines: 800, SeqRegionLines: 512,
	}},
	{"compress", SPECint, Profile{
		Seed: 102, PctLoad: 22.7, PctStore: 8.6,
		ExecRun: 4, LoadRun: 2.5, StoreBurst: 2,
		LoadHot: 0.900, LoadRecent: 0.010, HotLines: 224,
		WarmLines: 3000, FarLines: 4800, FarFrac: 0.09,
		StoreSeq: 0.694, StoreLines: 1600, SeqRegionLines: 512,
	}},
	{"uncompress", SPECint, Profile{
		Seed: 103, PctLoad: 22.6, PctStore: 8.4,
		ExecRun: 4, LoadRun: 2.5, StoreBurst: 2,
		LoadHot: 0.956, LoadRecent: 0.008, HotLines: 224,
		WarmLines: 2500, FarLines: 1200, FarFrac: 0.015,
		StoreSeq: 0.480, StoreLines: 1600, SeqRegionLines: 512,
	}},
	{"sc", SPECint, Profile{
		Seed: 104, PctLoad: 27.2, PctStore: 11.4,
		ExecRun: 4, LoadRun: 3, StoreBurst: 3,
		LoadHot: 0.948, LoadRecent: 0.020, HotLines: 224,
		WarmLines: 3200, FarLines: 2400, FarFrac: 0.025,
		StoreSeq: 0.891, StoreLines: 1200, SeqRegionLines: 512,
	}},
	{"cc1", SPECint, Profile{
		Seed: 105, PctLoad: 20.2, PctStore: 10.5,
		ExecRun: 4, LoadRun: 2.5, StoreBurst: 3,
		LoadHot: 0.963, LoadRecent: 0.020, HotLines: 240,
		WarmLines: 2800, FarLines: 12000, FarFrac: 0.008,
		StoreSeq: 0.765, StoreLines: 1200, SeqRegionLines: 512,
	}},
	{"li", SPECint, Profile{
		Seed: 106, PctLoad: 28.4, PctStore: 16.2,
		ExecRun: 3, LoadRun: 3, StoreBurst: 2.5,
		LoadHot: 0.946, LoadRecent: 0.050, HotLines: 224,
		WarmLines: 2400, FarLines: 10000, FarFrac: 0.009,
		StoreSeq: 0.701, StoreLines: 1200, SeqRegionLines: 512,
	}},

	// ── SPECfp92 ─────────────────────────────────────────────────────
	{"doduc", SPECfp, Profile{
		Seed: 107, PctLoad: 22.4, PctStore: 6.8,
		ExecRun: 5, LoadRun: 3, StoreBurst: 3,
		LoadHot: 0.938, LoadRecent: 0.012, HotLines: 224,
		WarmLines: 2000, FarLines: 1500, FarFrac: 0.001,
		StoreSeq: 0.754, StoreLines: 1000, SeqRegionLines: 512,
	}},
	{"hydro2d", SPECfp, Profile{
		Seed: 108, PctLoad: 21.9, PctStore: 8.7,
		ExecRun: 5, LoadRun: 3, StoreBurst: 4,
		LoadHot: 0.910, LoadRecent: 0.015, HotLines: 224,
		WarmLines: 3000, FarLines: 4000, FarFrac: 0.035,
		StoreSeq: 0.719, StoreLines: 1400, SeqRegionLines: 512,
	}},
	{"mdljsp2", SPECfp, Profile{
		Seed: 109, PctLoad: 21.1, PctStore: 6.0,
		ExecRun: 5, LoadRun: 3, StoreBurst: 3,
		LoadHot: 0.985, LoadRecent: 0.004, HotLines: 240,
		WarmLines: 1200, FarLines: 8000, FarFrac: 0.002,
		StoreSeq: 0.246, StoreLines: 4000, SeqRegionLines: 512,
	}},
	{"fpppp", SPECfp, Profile{
		Seed: 110, PctLoad: 33.8, PctStore: 12.7,
		ExecRun: 8, LoadRun: 4, StoreBurst: 3,
		LoadHot: 0.937, LoadRecent: 0.040, HotLines: 224,
		WarmLines: 2000, FarLines: 1500, FarFrac: 0.002,
		StoreSeq: 0.633, StoreLines: 1200, SeqRegionLines: 512,
	}},
	{"mdljdp2", SPECfp, Profile{
		Seed: 111, PctLoad: 14.5, PctStore: 7.6,
		ExecRun: 5, LoadRun: 2.5, StoreBurst: 4,
		LoadHot: 0.918, LoadRecent: 0.010, HotLines: 224,
		WarmLines: 2600, FarLines: 6400, FarFrac: 0.012,
		StoreSeq: 0.253, StoreLines: 4000, SeqRegionLines: 512,
	}},
	{"wave5", SPECfp, Profile{
		Seed: 112, PctLoad: 20.8, PctStore: 13.9,
		ExecRun: 5, LoadRun: 3, StoreBurst: 3.5,
		LoadHot: 0.940, LoadRecent: 0.020, HotLines: 224,
		WarmLines: 3000, FarLines: 48000, FarFrac: 0.01,
		StoreSeq: 0.659, StoreLines: 1600, SeqRegionLines: 512,
	}},
	{"su2cor", SPECfp, Profile{
		Seed: 113, PctLoad: 24.3, PctStore: 11.0,
		ExecRun: 4, LoadRun: 3, StoreBurst: 4,
		LoadHot: 0.654, LoadRecent: 0.025, HotLines: 224,
		WarmLines: 3600, FarLines: 24000, FarFrac: 0.085,
		StoreSeq: 0.482, StoreLines: 2000, SeqRegionLines: 512,
	}},
}

func init() {
	for _, np := range syntheticProfiles {
		registerProfile(np.Name, np.Group, paperTargets[np.Name], np.Profile)
	}

	// ── NASA kernels (real loop nests) ───────────────────────────────
	register(Benchmark{
		Name: "tomcatv", Group: SPECfp, Target: paperTargets["tomcatv"],
		gen: func(n uint64) trace.Generator {
			return newKernelGen(n, tomcatv(tomcatvParams{
				n: 192, lda: 193, execStencil: 16, execUpdate: 8,
				scatterPeriod: 2, scatterBurst: 2, seed: 114,
			}))
		},
	})
	register(Benchmark{
		Name: "fft", Group: NASA, Target: paperTargets["fft"],
		gen: func(n uint64) trace.Generator {
			return newKernelGen(n, fft(fftParams{logN: 13, execPad: 10}))
		},
	})
	register(Benchmark{
		Name: "cholsky", Group: NASA, Target: paperTargets["cholsky"],
		gen: func(n uint64) trace.Generator {
			return newKernelGen(n, cholsky(cholskyParams{
				n: 192, lda: 193, rowMajor: true, // inner loop strides lda
				execPad: 6, spillEvery: 3, spillCluster: 3, hotNum: 2, hotDen: 3,
			}))
		},
	})
	register(Benchmark{
		Name: "gmtry", Group: NASA, Target: paperTargets["gmtry"],
		gen: func(n uint64) trace.Generator {
			return newKernelGen(n, gmtry(gmtryParams{
				n: 208, lda: 209, rowMajor: true,
				execPad: 5, spillEvery: 8, spillCluster: 2, hotNum: 9, hotDen: 5,
			}))
		},
	})

	// ── Table 6 transformed variants ─────────────────────────────────
	registerExtra(Benchmark{
		Name: "cholsky-t", Group: NASA, Target: paperTargets["cholsky-t"],
		gen: func(n uint64) trace.Generator {
			return newKernelGen(n, cholsky(cholskyParams{
				n: 192, lda: 193, rowMajor: false, // transposed: unit stride
				// Lower spill pressure: the unit-stride loop needs fewer
				// live registers than the strided original.
				execPad: 6, spillEvery: 12, spillCluster: 3, hotNum: 2, hotDen: 3,
			}))
		},
	})
	registerExtra(Benchmark{
		Name: "gmtry-t", Group: NASA, Target: paperTargets["gmtry-t"],
		gen: func(n uint64) trace.Generator {
			return newKernelGen(n, gmtry(gmtryParams{
				n: 208, lda: 209, rowMajor: false, // interchanged: unit stride
				// Lower spill pressure: the unit-stride loop needs fewer
				// live registers than the strided original.
				execPad: 5, spillEvery: 24, spillCluster: 2, hotNum: 9, hotDen: 5,
			}))
		},
	})

	sortRegistry()
}
