package main

import (
	"bufio"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/workload"
)

// metricValue reads one unlabelled series from /metrics.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStreamCacheStaysInBudget sends synchronous runs over distinct
// (bench, n) pairs whose encoded streams total several times the stream
// cache's budget: after every request the cache holds at most the budget,
// streams are evicted, a stream larger than the budget is never admitted,
// and the live heap stops growing once the cache is full.
func TestStreamCacheStaysInBudget(t *testing.T) {
	_, ts := testServer(t)
	// n values no other test uses, so every pair starts as a miss; its
	// second machine records the stream.
	ns := []uint64{300_001, 300_003}
	run := func(bench string, n uint64, depth int) {
		t.Helper()
		resp, _ := postRun(t, ts, fmt.Sprintf(`{"bench":%q,"n":%d,"depth":%d}`, bench, n, depth))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s n=%d: status %d", bench, n, resp.StatusCode)
		}
		if b := metricValue(t, ts.URL, "workload_stream_cache_bytes"); b > dispatch.StreamCacheBudget {
			t.Fatalf("after %s n=%d: %v bytes cached, budget %d", bench, n, b, dispatch.StreamCacheBudget)
		}
	}
	misses := func() float64 { return metricValue(t, ts.URL, "workload_stream_cache_misses_total") }

	var first uint64
	for i, n := range ns {
		for _, b := range workload.All() {
			run(b.Name, n, 4)
			run(b.Name, n, 5)
		}
		if i == 0 {
			first = liveHeap()
		}
	}
	second := liveHeap()
	const slack = 2 << 20
	if second > first+slack {
		t.Errorf("live heap grew from %d to %d bytes with the cache full (slack %d)", first, second, slack)
	}

	// The first pair was evicted long ago: a new machine on it misses.
	before := misses()
	run(workload.All()[0].Name, ns[0], 6)
	if misses() != before+1 {
		t.Error("the first stream was never evicted")
	}

	// A stream larger than the whole budget is recorded, on its second
	// request, only up to the budget and never admitted, so asking again
	// still misses.
	run("li", 5_000_000, 4)
	run("li", 5_000_000, 5)
	before = misses()
	run("li", 5_000_000, 6)
	if misses() != before+1 {
		t.Error("a stream over the budget was admitted")
	}
}
