package workload

import (
	"context"
	"fmt"
	"os"
	"testing"

	"repro/internal/sim"
)

// TestAutoCalibrate is the tuning harness that produced the LoadHot and
// StoreSeq values in registry.go: it iteratively nudges both knobs until
// the measured baseline L1 and write-buffer hit rates match the paper's
// Table 5.  It only runs when WB_CALIBRATE=1 so normal test runs stay fast;
// re-run it (and paste the printed literals) after changing the generator
// or the machine model.
func TestAutoCalibrate(t *testing.T) {
	if os.Getenv("WB_CALIBRATE") == "" {
		t.Skip("set WB_CALIBRATE=1 to run the calibration search")
	}
	const n = 300_000
	for _, np := range syntheticProfiles {
		p := np.Profile
		target := paperTargets[np.Name]
		var l1, wb float64
		for round := 0; round < 8; round++ {
			m := sim.MustNew(sim.Baseline())
			// Warm up on the first quarter, as every experiment does.
			if err := sim.NewRow([]*sim.Machine{m}).Run(context.Background(), newSynth(p, n), n/4); err != nil {
				t.Fatal(err)
			}
			c := m.Counters()
			l1 = 100 * c.L1LoadHitRate()
			wb = 100 * m.WBStoreHitRate()
			p.LoadHot += (target.L1HitRate - l1) / 100 * 0.9
			p.StoreSeq += (target.WBHitRate - wb) / 100 * 1.1
			p.LoadHot = clamp(p.LoadHot, 0, 0.99)
			p.StoreSeq = clamp(p.StoreSeq, 0, 0.97)
		}
		fmt.Printf("%-12s LoadHot: %.3f, StoreSeq: %.3f,   (L1 %.1f/%.1f  WB %.1f/%.1f)\n",
			np.Name, p.LoadHot, p.StoreSeq, l1, target.L1HitRate, wb, target.WBHitRate)
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
