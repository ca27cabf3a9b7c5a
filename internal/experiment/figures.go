package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

func init() {
	registerExperiment(stallFigure("fig3",
		"Write-buffer-induced stall cycles, base model (4-deep, retire-at-2, flush-full)",
		func() []ConfigSpec { return baseline }))

	registerExperiment(stallFigure("fig4",
		"Stall cycles as a function of depth, base model, depth = 2-12",
		func() []ConfigSpec {
			var specs []ConfigSpec
			for _, d := range []int{2, 4, 6, 8, 10, 12} {
				specs = append(specs, ConfigSpec{
					Label: fmt.Sprintf("%d-deep", d),
					Cfg:   sim.Baseline().WithDepth(d),
				})
			}
			return specs
		}))

	registerExperiment(stallFigure("fig5",
		"Stall cycles as a function of retirement policy, 12-deep, flush-full, retire-at-2 thru 10",
		func() []ConfigSpec {
			var specs []ConfigSpec
			for _, hwm := range []int{2, 4, 6, 8, 10} {
				specs = append(specs, ConfigSpec{
					Label: fmt.Sprintf("retire-at-%d", hwm),
					Cfg:   sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: hwm}),
				})
			}
			return specs
		}))

	registerExperiment(stallFigure("fig6",
		"Stalls as a function of load-hazard policy, 12-deep, retire-at-10",
		func() []ConfigSpec { return hazardSpecs(10) }))

	registerExperiment(stallFigure("fig7",
		"Stalls as a function of load-hazard policy, 12-deep, retire-at-8",
		func() []ConfigSpec { return hazardSpecs(8) }))

	registerExperiment(stallFigure("fig8",
		"Retirement policy under flush-partial, retire-at-2 thru 6, headroom fixed at 6 entries",
		func() []ConfigSpec { return headroomSpecs(core.FlushPartial) }))

	registerExperiment(stallFigure("fig9",
		"Retirement policy under flush-item-only, retire-at-2 thru 6, headroom fixed at 6 entries",
		func() []ConfigSpec { return headroomSpecs(core.FlushItemOnly) }))

	registerExperiment(stallFigure("fig10",
		"Stall cycles as a function of L1 cache size, base write buffer",
		func() []ConfigSpec {
			var specs []ConfigSpec
			for _, kb := range []int{8, 16, 32} {
				specs = append(specs, ConfigSpec{
					Label: fmt.Sprintf("%dk", kb),
					Cfg:   sim.Baseline().WithL1Size(kb << 10),
				})
			}
			return specs
		}))

	registerExperiment(stallFigure("fig11",
		"Stall cycles as a function of L2 access time, base write buffer",
		func() []ConfigSpec {
			var specs []ConfigSpec
			for _, lat := range []uint64{3, 6, 10} {
				specs = append(specs, ConfigSpec{
					Label: fmt.Sprintf("%d-cycles", lat),
					Cfg:   sim.Baseline().WithL2Latency(lat),
				})
			}
			return specs
		}))

	registerExperiment(stallFigure("fig12",
		"Stall cycles with perfect and real L2 caches of various sizes, latency 6, memory 25",
		func() []ConfigSpec {
			specs := []ConfigSpec{{Label: "perfect-L2", Cfg: sim.Baseline()}}
			for _, size := range []int{1 << 20, 512 << 10, 128 << 10} {
				label := fmt.Sprintf("%dk-L2", size>>10)
				if size >= 1<<20 {
					label = fmt.Sprintf("%dM-L2", size>>20)
				}
				specs = append(specs, ConfigSpec{Label: label, Cfg: sim.Baseline().WithL2(size)})
			}
			return specs
		}))

	registerExperiment(stallFigure("fig13",
		"Stall cycles with perfect and real L2 caches and different main-memory latencies",
		func() []ConfigSpec {
			return []ConfigSpec{
				{Label: "perfect-L2", Cfg: sim.Baseline()},
				{Label: "1M-L2,mm=25", Cfg: sim.Baseline().WithL2(1 << 20).WithMemLat(25)},
				{Label: "1M-L2,mm=50", Cfg: sim.Baseline().WithL2(1 << 20).WithMemLat(50)},
			}
		}))
}

// hazardSpecs builds Figures 6/7's configuration set: "Baseline+" (12-deep,
// retire-at-2, flush-full) followed by each load-hazard policy at the given
// high-water mark.
func hazardSpecs(hwm int) []ConfigSpec {
	specs := []ConfigSpec{{
		Label: "Baseline+",
		Cfg:   sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 2}),
	}}
	for _, h := range core.HazardPolicies {
		specs = append(specs, ConfigSpec{
			Label: h.String(),
			Cfg:   sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: hwm}).WithHazard(h),
		})
	}
	return specs
}

// headroomSpecs builds Figures 8/9's configuration set: retirement policy
// varies from retire-at-2 to retire-at-6 while headroom stays fixed at 6
// entries, so depth varies too (the paper's key methodological point).
func headroomSpecs(h core.HazardPolicy) []ConfigSpec {
	specs := []ConfigSpec{{
		Label: "Baseline+",
		Cfg:   sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 2}),
	}}
	const headroom = 6
	for _, hwm := range []int{2, 4, 6} {
		specs = append(specs, ConfigSpec{
			Label: fmt.Sprintf("retire-at-%d", hwm),
			Cfg: sim.Baseline().
				WithDepth(hwm + headroom).
				WithRetire(core.RetireAt{N: hwm}).
				WithHazard(h),
		})
	}
	return specs
}
