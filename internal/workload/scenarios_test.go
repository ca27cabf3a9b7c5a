package workload_test

import (
	"math"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestScenarioRegistry pins the registry contract: scenarios are findable
// by name and grouped as Scenario, but All still returns exactly the
// paper's 17-benchmark suite.
func TestScenarioRegistry(t *testing.T) {
	if n := len(workload.All()); n != 17 {
		t.Errorf("All() returns %d benchmarks, want the paper's 17", n)
	}
	sc := workload.Scenarios()
	if len(sc) != 2 {
		t.Fatalf("Scenarios() returns %d entries, want 2", len(sc))
	}
	for _, name := range []string{"burstw", "fenceprod"} {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) did not find the scenario", name)
		}
		if b.Group != workload.Scenario {
			t.Errorf("%s grouped as %v, want %v", name, b.Group, workload.Scenario)
		}
		for _, a := range workload.All() {
			if a.Name == name {
				t.Errorf("scenario %s leaked into All()", name)
			}
		}
	}
}

// TestScenarioGeneratorMatchesStream: the stress scenarios, fences
// included, generate exactly the sequences they were recorded with.
func TestScenarioGeneratorMatchesStream(t *testing.T) {
	checkStreamDigests(t, workload.Scenarios())
}

// TestScenarioCalibration holds the scenarios to their declared targets:
// the instruction mix and baseline hit rates of Target, and for fenceprod
// the declared barrier mix.  Unlike TestCalibration these targets are not
// paper numbers — they are this repository's own declarations, pinned so
// a generator change cannot silently reshape a scenario.
func TestScenarioCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration needs full-length runs")
	}
	const n = 400_000
	check := func(t *testing.T, name, what string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s %s = %.2f, declared %.2f (tolerance %.1f)", name, what, got, want, tol)
		}
	}
	for _, b := range workload.Scenarios() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			pl, ps, l1, wb := measure(t, b, n)
			t.Logf("%-10s loads %5.1f/%5.1f  stores %5.1f/%5.1f  L1 %5.1f/%5.1f  WB %5.1f/%5.1f",
				b.Name, pl, b.Target.PctLoads, ps, b.Target.PctStores,
				l1, b.Target.L1HitRate, wb, b.Target.WBHitRate)
			mixTol, hitTol := 2.5, 7.0
			if b.Name == "fenceprod" { // kernel: mix emerges from loop structure
				mixTol = 7.0
			}
			check(t, b.Name, "pct-loads", pl, b.Target.PctLoads, mixTol)
			check(t, b.Name, "pct-stores", ps, b.Target.PctStores, mixTol)
			check(t, b.Name, "L1-hit", l1, b.Target.L1HitRate, hitTol)
			check(t, b.Name, "WB-hit", wb, b.Target.WBHitRate, hitTol)
		})
	}

	t.Run("fenceprod-fences", func(t *testing.T) {
		m := trace.MeasureMix(mustByName(t, "fenceprod").Stream(n))
		rel := 100 * float64(m.Releases) / float64(m.Total())
		mb := 100 * float64(m.Membars) / float64(m.Total())
		t.Logf("fenceprod releases %.2f%%  membars %.2f%%", rel, mb)
		want := workload.FenceprodTargets
		check(t, "fenceprod", "pct-releases", rel, want.PctReleases, 0.5)
		check(t, "fenceprod", "pct-membars", mb, want.PctMembars, 0.25)
		if m.Releases == 0 || m.Membars == 0 {
			t.Error("fenceprod emitted no barriers")
		}
		if m.Releases < m.Membars {
			t.Errorf("releases (%d) should dominate membars (%d)", m.Releases, m.Membars)
		}
	})

	t.Run("burstw-no-fences", func(t *testing.T) {
		m := trace.MeasureMix(mustByName(t, "burstw").Stream(50_000))
		if m.Releases != 0 || m.Membars != 0 {
			t.Errorf("burstw emitted barriers (releases %d, membars %d)", m.Releases, m.Membars)
		}
	})
}

func mustByName(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q not registered", name)
	}
	return b
}
