package workload_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/sim"
	"repro/internal/workload"
)

// measure runs one benchmark on the baseline machine (with the standard
// warm-up) and returns its (pctLoads, pctStores, l1HitPct, wbHitPct).
func measure(t *testing.T, b workload.Benchmark, n uint64) (pl, ps, l1, wb float64) {
	t.Helper()
	row, _, err := dispatch.ExecuteRow(context.Background(), b, []string{"base"}, []sim.Config{sim.Baseline()}, n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := row[0]
	if err := m.C.Check(); err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	pl = 100 * float64(m.C.Loads) / float64(m.C.Instructions)
	ps = 100 * float64(m.C.Stores) / float64(m.C.Instructions)
	l1 = 100 * m.L1Hit
	wb = 100 * m.WBHit
	return
}

// TestCalibration checks every benchmark's dynamic mix and hit rates
// against the paper's Tables 4 and 5.  Profile-driven benchmarks get tight
// mix tolerances (the mix is constructed); kernels get looser ones (their
// mix emerges from real loop structure).
func TestCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration needs full-length runs")
	}
	kernels := map[string]bool{"tomcatv": true, "fft": true, "cholsky": true, "gmtry": true}
	const n = 800_000

	check := func(t *testing.T, name, what string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s %s = %.2f, paper %.2f (tolerance %.1f)", name, what, got, want, tol)
		}
	}

	all := workload.All()
	all = append(all, workload.Transformed()...)
	for _, b := range all {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			pl, ps, l1, wb := measure(t, b, n)
			t.Logf("%-12s loads %5.1f/%5.1f  stores %5.1f/%5.1f  L1 %5.1f/%5.1f  WB %5.1f/%5.1f",
				b.Name, pl, b.Target.PctLoads, ps, b.Target.PctStores,
				l1, b.Target.L1HitRate, wb, b.Target.WBHitRate)
			mixTol, hitTol := 2.5, 7.0
			if kernels[b.Name] || b.Name == "cholsky-t" || b.Name == "gmtry-t" {
				mixTol, hitTol = 7.0, 9.0
			}
			check(t, b.Name, "pct-loads", pl, b.Target.PctLoads, mixTol)
			check(t, b.Name, "pct-stores", ps, b.Target.PctStores, mixTol)
			check(t, b.Name, "L1-hit", l1, b.Target.L1HitRate, hitTol)
			check(t, b.Name, "WB-hit", wb, b.Target.WBHitRate, hitTol)
		})
	}
}
