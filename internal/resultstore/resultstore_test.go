package resultstore_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/resultstore"
)

func open(t *testing.T, dir string, reg *metrics.Registry) *resultstore.Store {
	t.Helper()
	s, err := resultstore.Open(dir, resultstore.Options{Metrics: reg, MemoryEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// layouts runs a store test over one and over two replica directories:
// every single-directory behaviour must hold at any replica count, with
// per-copy figures scaling by the number of copies.
func layouts(t *testing.T, test func(t *testing.T, dirs []string)) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("dirs=%d", n), func(t *testing.T) {
			dirs := make([]string, n)
			for i := range dirs {
				dirs[i] = t.TempDir()
			}
			test(t, dirs)
		})
	}
}

func openDirs(t *testing.T, dirs []string, reg *metrics.Registry) *resultstore.Store {
	t.Helper()
	s, err := resultstore.OpenDirs(dirs, resultstore.Options{Metrics: reg, MemoryEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// copiesOf returns every replica's copy of the entry file at rel.
func copiesOf(dirs []string, rel string) []string {
	out := make([]string, len(dirs))
	for i, d := range dirs {
		out[i] = filepath.Join(d, rel)
	}
	return out
}

// firstEntry returns the root-relative name of the first entry file under
// dir, or "" when there is none.
func firstEntry(dir string) string {
	var rel string
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".json") && rel == "" {
			rel, _ = filepath.Rel(dir, p)
		}
		return nil
	})
	return rel
}

func TestPutGetRoundTrip(t *testing.T) {
	layouts(t, func(t *testing.T, dirs []string) {
		reg := metrics.NewRegistry()
		s := openDirs(t, dirs, reg)
		key := resultstore.Key("li", 100000, "abc123")
		payload := []byte(`{"cpi":1.5}`)
		if _, ok := s.Get(key); ok {
			t.Fatal("empty store claimed a hit")
		}
		if err := s.Put(key, "abc123", payload); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(key)
		if !ok || string(got) != string(payload) {
			t.Fatalf("Get = %q, %v; want payload back", got, ok)
		}
		if n := reg.Counter(`resultstore_hits_total{tier="memory"}`).Value(); n != 1 {
			t.Errorf("memory hits = %d, want 1", n)
		}
		if n := reg.Counter("resultstore_misses_total").Value(); n != 1 {
			t.Errorf("misses = %d, want 1", n)
		}
	})
}

// A second Store over the same directories — a restart, or another
// process — must serve the first store's entries from disk.
func TestCrossProcessDurability(t *testing.T) {
	layouts(t, func(t *testing.T, dirs []string) {
		key := resultstore.Key("compress", 50000, "ffee")
		s1 := openDirs(t, dirs, nil)
		if err := s1.Put(key, "ffee", []byte(`{"x":1}`)); err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		s2 := openDirs(t, dirs, reg)
		got, ok := s2.Get(key)
		if !ok || string(got) != `{"x":1}` {
			t.Fatalf("reopened store: Get = %q, %v", got, ok)
		}
		if n := reg.Counter(`resultstore_hits_total{tier="disk"}`).Value(); n != 1 {
			t.Errorf("disk hits = %d, want 1", n)
		}
		// The disk hit promoted the entry: a second Get is a memory hit.
		s2.Get(key)
		if n := reg.Counter(`resultstore_hits_total{tier="memory"}`).Value(); n != 1 {
			t.Errorf("memory hits after promotion = %d, want 1", n)
		}
	})
}

// A flipped byte anywhere in every copy of an entry must turn it into a
// miss (the job re-simulates), never into served garbage.
func TestCorruptEntryQuarantined(t *testing.T) {
	layouts(t, func(t *testing.T, dirs []string) {
		reg := metrics.NewRegistry()
		s := openDirs(t, dirs, nil)
		key := resultstore.Key("li", 1000, "aa")
		if err := s.Put(key, "aa", []byte(`{"cpi":2.0}`)); err != nil {
			t.Fatal(err)
		}
		// Corrupt the payload on disk behind the store's back.
		rel := firstEntry(dirs[0])
		if rel == "" {
			t.Fatal("no entry file written")
		}
		copies := copiesOf(dirs, rel)
		for _, entryPath := range copies {
			data, err := os.ReadFile(entryPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(entryPath, []byte(strings.Replace(string(data), "2.0", "9.9", 1)), 0o644); err != nil {
				t.Fatal(err)
			}
		}

		fresh := openDirs(t, dirs, reg) // bypass the memory tier
		if _, ok := fresh.Get(key); ok {
			t.Fatal("corrupt entry served as a hit")
		}
		if n := reg.Counter("resultstore_corrupt_entries_total").Value(); n != uint64(len(copies)) {
			t.Errorf("corrupt counter = %d, want %d", n, len(copies))
		}
		for i, entryPath := range copies {
			if _, err := os.Stat(entryPath); !os.IsNotExist(err) {
				t.Error("corrupt entry still in the lookup path")
			}
			quarantined := filepath.Join(dirs[i], resultstore.QuarantineDir, filepath.Base(entryPath)+".corrupt")
			if _, err := os.Stat(quarantined); err != nil {
				t.Error("corrupt entry was not preserved in quarantine/ for inspection")
			}
		}
		if n := fresh.Quarantined(); n != len(copies) {
			t.Errorf("Quarantined() = %d, want %d", n, len(copies))
		}
	})
}

func TestVerifySweepsCorruption(t *testing.T) {
	layouts(t, func(t *testing.T, dirs []string) {
		s := openDirs(t, dirs, nil)
		for i, bench := range []string{"li", "compress", "go"} {
			key := resultstore.Key(bench, 1000, "h")
			if err := s.Put(key, "h", []byte(`{"i":`+string(rune('0'+i))+`}`)); err != nil {
				t.Fatal(err)
			}
		}
		// Garble every copy of one entry wholesale.
		copies := copiesOf(dirs, firstEntry(dirs[0]))
		for _, victim := range copies {
			if err := os.WriteFile(victim, []byte("not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ok, corrupt, err := s.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if ok != 2 || corrupt != len(copies) {
			t.Errorf("Verify = (%d ok, %d corrupt), want (2, %d)", ok, corrupt, len(copies))
		}
		// A second pass finds a clean store.
		ok, corrupt, err = s.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if ok != 2 || corrupt != 0 {
			t.Errorf("second Verify = (%d ok, %d corrupt), want (2, 0)", ok, corrupt)
		}
	})
}

func TestEvictHash(t *testing.T) {
	layouts(t, func(t *testing.T, dirs []string) {
		s := openDirs(t, dirs, nil)
		for _, bench := range []string{"li", "compress"} {
			s.Put(resultstore.Key(bench, 1000, "bad"), "bad", []byte(`{}`))
			s.Put(resultstore.Key(bench, 1000, "good"), "good", []byte(`{}`))
		}
		n, err := s.EvictHash("bad")
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 * len(dirs); n != want {
			t.Errorf("evicted %d entries, want %d", n, want)
		}
		if _, ok := s.Get(resultstore.Key("li", 1000, "bad")); ok {
			t.Error("evicted entry still served")
		}
		if _, ok := s.Get(resultstore.Key("li", 1000, "good")); !ok {
			t.Error("unrelated entry evicted")
		}
	})
}

func TestPruneByAge(t *testing.T) {
	layouts(t, func(t *testing.T, dirs []string) {
		s := openDirs(t, dirs, nil)
		keys := []string{
			resultstore.Key("li", 1, "h"),
			resultstore.Key("li", 2, "h"),
			resultstore.Key("li", 3, "h"),
		}
		for i, k := range keys {
			if err := s.Put(k, "h", []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			// Stamp strictly increasing mtimes so the prune order is stable
			// even on filesystems with coarse timestamps.
			old := time.Now().Add(time.Duration(i-10) * time.Hour)
			for _, dir := range dirs {
				filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
					if err == nil && !info.IsDir() && strings.HasSuffix(p, ".json") && info.ModTime().After(old) {
						if d, _, derr := decodeKeyOf(p); derr == nil && d == k {
							os.Chtimes(p, old, old)
						}
					}
					return nil
				})
			}
		}
		removed, err := s.Prune(1)
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 * len(dirs); removed != want {
			t.Errorf("pruned %d, want %d", removed, want)
		}
		fresh := openDirs(t, dirs, nil)
		if _, ok := fresh.Get(keys[2]); !ok {
			t.Error("newest entry was pruned")
		}
		if _, ok := fresh.Get(keys[0]); ok {
			t.Error("oldest entry survived the prune")
		}
	})
}

// decodeKeyOf reads the key field of an entry file (test helper).
func decodeKeyOf(path string) (string, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", "", err
	}
	var e struct {
		Key     string `json:"key"`
		CfgHash string `json:"config_hash"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return "", "", err
	}
	return e.Key, e.CfgHash, nil
}

func TestMemoryOnlyStore(t *testing.T) {
	s := open(t, "", nil)
	key := resultstore.Key("li", 5, "h")
	if err := s.Put(key, "h", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("memory-only store lost its entry")
	}
	disk, bytes, mem := s.Stats()
	if disk != 0 || bytes != 0 || mem != 1 {
		t.Errorf("Stats = (%d, %d, %d), want (0, 0, 1)", disk, bytes, mem)
	}
}

func TestMemoryTierBound(t *testing.T) {
	s := open(t, "", nil) // MemoryEntries = 4
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		s.Put(k, "h", []byte(k))
	}
	if _, ok := s.Get("a"); ok {
		t.Error("LRU entry survived over-capacity insert")
	}
	if _, ok := s.Get("e"); !ok {
		t.Error("most recent entry evicted")
	}
	if _, _, mem := s.Stats(); mem != 4 {
		t.Errorf("memory entries = %d, want 4", mem)
	}
}

// A memory-only store has no disk tier to maintain: Verify, EvictHash,
// Prune and Quarantined answer zero and change nothing but the memory
// tier's own entries.
func TestMemoryOnlyMaintenanceIsNoOp(t *testing.T) {
	s := open(t, "", nil)
	s.Put(resultstore.Key("li", 1, "keep"), "keep", []byte(`{}`))
	if ok, corrupt, err := s.Verify(); ok != 0 || corrupt != 0 || err != nil {
		t.Errorf("Verify = (%d, %d, %v), want (0, 0, nil)", ok, corrupt, err)
	}
	if n, err := s.EvictHash("absent"); n != 0 || err != nil {
		t.Errorf("EvictHash = (%d, %v), want (0, nil)", n, err)
	}
	if n, err := s.Prune(0); n != 0 || err != nil {
		t.Errorf("Prune = (%d, %v), want (0, nil)", n, err)
	}
	if n := s.Quarantined(); n != 0 {
		t.Errorf("Quarantined = %d, want 0", n)
	}
	if _, ok := s.Get(resultstore.Key("li", 1, "keep")); !ok {
		t.Error("maintenance dropped a memory-tier entry it did not target")
	}
}

// failDir rejects every entry write under one directory: a replica whose
// disk refuses writes while its sibling accepts them.
type failDir string

func (failDir) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (d failDir) WriteFile(path string, data []byte) error {
	if strings.HasPrefix(path, string(d)) {
		return fmt.Errorf("injected write failure under %s", string(d))
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// The resultstore_disk_entries gauge reports the figure Stats returns —
// the widest replica's entry count — however the replicas disagree.
func TestDiskEntriesGaugeMatchesStats(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	reg := metrics.NewRegistry()
	s, err := resultstore.OpenSpec(dirA+","+dirB, resultstore.Options{Metrics: reg, Disk: failDir(dirB)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Put(resultstore.Key("li", uint64(i), "h"), "h", []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	gauge := reg.Gauge("resultstore_disk_entries")
	if g := gauge.Value(); g != 3 {
		t.Errorf("gauge after Puts = %v, want 3", g)
	}
	disk, _, _ := s.Stats()
	if disk != 3 {
		t.Fatalf("Stats disk entries = %d, want 3", disk)
	}
	if g := gauge.Value(); g != float64(disk) {
		t.Errorf("gauge after Stats = %v, want %d (the figure Stats reports)", g, disk)
	}
}

// A Put that no replica accepts is an error and counts once in
// resultstore_put_failures_total; a degraded Put, which a sibling replica
// accepted, is not a failure.  The memory tier serves the result either way.
func TestPutFailuresCounted(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	for _, tc := range []struct {
		spec string
		want uint64
	}{{dirA, 1}, {dirA + "," + dirB, 0}} {
		reg := metrics.NewRegistry()
		s, err := resultstore.OpenSpec(tc.spec, resultstore.Options{Metrics: reg, Disk: failDir(dirA)})
		if err != nil {
			t.Fatal(err)
		}
		key := resultstore.Key("li", 1, "h")
		if err := s.Put(key, "h", []byte(`{}`)); (err != nil) != (tc.want > 0) {
			t.Errorf("%s: Put err = %v, want an error only when no replica accepts it", tc.spec, err)
		}
		if n := reg.Counter("resultstore_put_failures_total").Value(); n != tc.want {
			t.Errorf("%s: resultstore_put_failures_total = %d, want %d", tc.spec, n, tc.want)
		}
		if _, ok := s.Get(key); !ok {
			t.Errorf("%s: memory tier lost the result of a failed Put", tc.spec)
		}
		s.Close()
	}
}
