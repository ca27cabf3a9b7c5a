package sim

import (
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// TestWriteCacheStatePinned pins the write-cache machine's observable
// state to values recorded before the write cache became a
// core.BufferOrg, when it ran behind a separate store path with a
// one-entry FIFO as its victim buffer: counters, the occupancy histogram
// (length and values), the clock, and the store hit rate, over the fused
// benchmarks at three depths plus the barrier-heavy fenceprod scenario.
func TestWriteCacheStatePinned(t *testing.T) {
	const n = 40_000
	pins := []struct {
		depth    int
		bench    string
		counters stats.Counters
		occ      []uint64
		clock    uint64
		hitRate  float64
	}{
		{1, "li", stats.Counters{Cycles: 42862, Instructions: 30000, BaseCycles: 30000, Stalls: [6]uint64{8805, 379, 0, 0, 0, 0}, MissCycles: 3678, IFetchMissCycles: 0, Loads: 8722, Stores: 4783, BlockedStores: 1952, L1LoadHits: 8046, WBReadHits: 63, HazardEvents: 129, Retirements: 3074, FlushedEntries: 0}, []uint64{0, 4783}, 71800, 0.3570980556136316},
		{1, "compress", stats.Counters{Cycles: 41403, Instructions: 30000, BaseCycles: 30000, Stalls: [6]uint64{3573, 516, 0, 0, 0, 0}, MissCycles: 7314, IFetchMissCycles: 0, Loads: 6860, Stores: 2576, BlockedStores: 792, L1LoadHits: 5630, WBReadHits: 11, HazardEvents: 18, Retirements: 1603, FlushedEntries: 0}, []uint64{0, 2576}, 72402, 0.37771739130434784},
		{1, "tomcatv", stats.Counters{Cycles: 63504, Instructions: 30000, BaseCycles: 30000, Stalls: [6]uint64{11105, 3433, 0, 0, 0, 0}, MissCycles: 18966, IFetchMissCycles: 0, Loads: 8888, Stores: 3332, BlockedStores: 2221, L1LoadHits: 5727, WBReadHits: 0, HazardEvents: 0, Retirements: 3332, FlushedEntries: 0}, []uint64{0, 3332}, 84898, 0},
		{1, "cholsky", stats.Counters{Cycles: 75543, Instructions: 30000, BaseCycles: 30000, Stalls: [6]uint64{3140, 11281, 0, 0, 0, 0}, MissCycles: 31122, IFetchMissCycles: 0, Loads: 8187, Stores: 5449, BlockedStores: 785, L1LoadHits: 3000, WBReadHits: 0, HazardEvents: 0, Retirements: 3632, FlushedEntries: 0}, []uint64{0, 5449}, 97430, 0.33327216002936316},
		{4, "li", stats.Counters{Cycles: 37220, Instructions: 30000, BaseCycles: 30000, Stalls: [6]uint64{5123, 171, 0, 0, 0, 0}, MissCycles: 1926, IFetchMissCycles: 0, Loads: 8722, Stores: 4783, BlockedStores: 1247, L1LoadHits: 8143, WBReadHits: 258, HazardEvents: 366, Retirements: 2306, FlushedEntries: 0}, []uint64{0, 0, 0, 0, 4783}, 64875, 0.5176667363579344},
		{4, "compress", stats.Counters{Cycles: 39405, Instructions: 30000, BaseCycles: 30000, Stalls: [6]uint64{2026, 419, 0, 0, 0, 0}, MissCycles: 6960, IFetchMissCycles: 0, Loads: 6860, Stores: 2576, BlockedStores: 485, L1LoadHits: 5655, WBReadHits: 45, HazardEvents: 60, Retirements: 1228, FlushedEntries: 0}, []uint64{0, 0, 0, 0, 2576}, 70005, 0.5232919254658385},
		{4, "tomcatv", stats.Counters{Cycles: 63504, Instructions: 30000, BaseCycles: 30000, Stalls: [6]uint64{11105, 3433, 0, 0, 0, 0}, MissCycles: 18966, IFetchMissCycles: 0, Loads: 8888, Stores: 3332, BlockedStores: 2221, L1LoadHits: 5727, WBReadHits: 0, HazardEvents: 0, Retirements: 3332, FlushedEntries: 0}, []uint64{0, 0, 0, 0, 3332}, 84884, 0},
		{4, "cholsky", stats.Counters{Cycles: 75543, Instructions: 30000, BaseCycles: 30000, Stalls: [6]uint64{3140, 11281, 0, 0, 0, 0}, MissCycles: 31122, IFetchMissCycles: 0, Loads: 8187, Stores: 5449, BlockedStores: 785, L1LoadHits: 3000, WBReadHits: 0, HazardEvents: 0, Retirements: 3632, FlushedEntries: 0}, []uint64{0, 0, 0, 0, 5449}, 97415, 0.33327216002936316},
		{8, "li", stats.Counters{Cycles: 36929, Instructions: 30000, BaseCycles: 30000, Stalls: [6]uint64{5030, 159, 0, 0, 0, 0}, MissCycles: 1740, IFetchMissCycles: 0, Loads: 8722, Stores: 4783, BlockedStores: 1229, L1LoadHits: 8156, WBReadHits: 276, HazardEvents: 400, Retirements: 2286, FlushedEntries: 0}, []uint64{0, 0, 0, 0, 0, 0, 0, 0, 4783}, 64431, 0.5218482124189839},
		{8, "compress", stats.Counters{Cycles: 39301, Instructions: 30000, BaseCycles: 30000, Stalls: [6]uint64{1989, 418, 0, 0, 0, 0}, MissCycles: 6894, IFetchMissCycles: 0, Loads: 6860, Stores: 2576, BlockedStores: 478, L1LoadHits: 5659, WBReadHits: 52, HazardEvents: 70, Retirements: 1217, FlushedEntries: 0}, []uint64{0, 0, 0, 0, 0, 0, 0, 0, 2576}, 69852, 0.5275621118012422},
		{8, "tomcatv", stats.Counters{Cycles: 63504, Instructions: 30000, BaseCycles: 30000, Stalls: [6]uint64{11105, 3433, 0, 0, 0, 0}, MissCycles: 18966, IFetchMissCycles: 0, Loads: 8888, Stores: 3332, BlockedStores: 2221, L1LoadHits: 5727, WBReadHits: 0, HazardEvents: 0, Retirements: 3332, FlushedEntries: 0}, []uint64{0, 0, 0, 0, 0, 0, 0, 0, 3332}, 84867, 0},
		{8, "cholsky", stats.Counters{Cycles: 69073, Instructions: 30000, BaseCycles: 30000, Stalls: [6]uint64{0, 8971, 0, 0, 0, 0}, MissCycles: 30102, IFetchMissCycles: 0, Loads: 8187, Stores: 5449, BlockedStores: 0, L1LoadHits: 2262, WBReadHits: 908, HazardEvents: 908, Retirements: 2724, FlushedEntries: 0}, []uint64{0, 0, 0, 0, 0, 0, 0, 0, 5449}, 89146, 0.49990824004404477},
		{1, "fenceprod", stats.Counters{Cycles: 34398, Instructions: 30000, BaseCycles: 30000, Stalls: [6]uint64{0, 0, 0, 0, 882, 3516}, MissCycles: 0, IFetchMissCycles: 0, Loads: 5265, Stores: 5271, BlockedStores: 0, L1LoadHits: 4680, WBReadHits: 585, HazardEvents: 585, Retirements: 1025, FlushedEntries: 733}, []uint64{732, 4539}, 46624, 0.6668563839878581},
		{8, "fenceprod", stats.Counters{Cycles: 40548, Instructions: 30000, BaseCycles: 30000, Stalls: [6]uint64{0, 0, 0, 0, 882, 9666}, MissCycles: 0, IFetchMissCycles: 0, Loads: 5265, Stores: 5271, BlockedStores: 0, L1LoadHits: 4680, WBReadHits: 585, HazardEvents: 585, Retirements: 0, FlushedEntries: 1758}, []uint64{732, 1026, 2196, 1317, 0, 0, 0, 0, 0}, 54820, 0.6668563839878581},
	}
	for _, p := range pins {
		b, ok := workload.ByName(p.bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", p.bench)
		}
		m := MustNew(Baseline().WithWriteCache(p.depth))
		runFused(m, b.Stream(n), n)
		if got := m.Counters(); got != p.counters {
			t.Errorf("wcache=%d/%s counters:\n got  %+v\n want %+v", p.depth, p.bench, got, p.counters)
		}
		if got := m.OccupancyHistogram(); !reflect.DeepEqual(got, p.occ) {
			t.Errorf("wcache=%d/%s occupancy histogram = %v, want %v", p.depth, p.bench, got, p.occ)
		}
		if got := m.Clock(); got != p.clock {
			t.Errorf("wcache=%d/%s clock = %d, want %d", p.depth, p.bench, got, p.clock)
		}
		if got := m.WBStoreHitRate(); got != p.hitRate {
			t.Errorf("wcache=%d/%s store hit rate = %v, want %v", p.depth, p.bench, got, p.hitRate)
		}
	}
}
