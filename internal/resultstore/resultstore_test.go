package resultstore_test

import (
	"bytes"
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

// record is one line of a replica's log, as the tests see it.
type record struct {
	off  int64  // first byte of the line
	line []byte // without the trailing newline
	key  string // the envelope's key; "" when it does not parse
}

// addr is the record's address field.
func (r record) addr() string { return string(r.line[:16]) }

// records parses the log under one replica root, in log order.
func records(t *testing.T, dir string) []record {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, resultstore.LogName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var out []record
	for off := 0; off < len(data); {
		end := bytes.IndexByte(data[off:], '\n')
		if end < 0 {
			break
		}
		line := data[off : off+end]
		if len(line) > 34 {
			var e struct {
				Key string `json:"key"`
			}
			json.Unmarshal(line[34:], &e)
			out = append(out, record{off: int64(off), line: line, key: e.Key})
		}
		off += end + 1
	}
	return out
}

// rewriteRecord edits one record of the log in place; edit must keep the
// line's length, as bitrot does.
func rewriteRecord(t *testing.T, dir string, rec record, edit func(line []byte)) {
	t.Helper()
	line := append([]byte(nil), rec.line...)
	edit(line)
	if len(line) != len(rec.line) {
		t.Fatal("record edit changed the line's length")
	}
	f, err := os.OpenFile(filepath.Join(dir, resultstore.LogName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(line, rec.off); err != nil {
		t.Fatal(err)
	}
}

// garble overwrites a record's envelope with bytes that do not parse,
// keeping its header.
func garble(line []byte) {
	for i := 34; i < len(line); i++ {
		line[i] = 'x'
	}
}

// recordOf returns the record of key in the log under dir.
func recordOf(t *testing.T, dir, key string) record {
	t.Helper()
	for _, r := range records(t, dir) {
		if r.key == key {
			return r
		}
	}
	t.Fatalf("no record of %s in %s", key, dir)
	return record{}
}

// stampWriteTime sets the write time in key's record under dir.
func stampWriteTime(t *testing.T, dir, key string, when time.Time) {
	t.Helper()
	rewriteRecord(t, dir, recordOf(t, dir, key), func(line []byte) {
		copy(line[17:33], fmt.Sprintf("%016x", uint64(when.UnixNano())))
	})
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
		copies := dirs
		rotted := map[string][]byte{}
		for _, dir := range copies {
			rewriteRecord(t, dir, recordOf(t, dir, key), func(line []byte) {
				i := bytes.Index(line, []byte("2.0"))
				copy(line[i:], "9.9")
				rotted[dir] = append([]byte(nil), line...)
			})
		}

		fresh := openDirs(t, dirs, reg) // bypass the memory tier
		if _, ok := fresh.Get(key); ok {
			t.Fatal("corrupt entry served as a hit")
		}
		if n := reg.Counter("resultstore_corrupt_entries_total").Value(); n != uint64(len(copies)) {
			t.Errorf("corrupt counter = %d, want %d", n, len(copies))
		}
		// Out of the lookup path: a second Get finds no record to reject.
		if _, ok := fresh.Get(key); ok || reg.Counter("resultstore_corrupt_entries_total").Value() != uint64(len(copies)) {
			t.Error("corrupt entry still in the lookup path")
		}
		for _, dir := range copies {
			kept, _ := filepath.Glob(filepath.Join(dir, resultstore.QuarantineDir, "*.corrupt"))
			if len(kept) != 1 {
				t.Fatalf("quarantine/ holds %d copies, want 1", len(kept))
			}
			if data, err := os.ReadFile(kept[0]); err != nil || !bytes.Equal(data, rotted[dir]) {
				t.Error("corrupt entry was not preserved in quarantine/ for inspection")
			}
		}
		if n := fresh.Quarantined(); n != len(copies) {
			t.Errorf("Quarantined() = %d, want %d", n, len(copies))
		}
	})
}

// A quarantined record leaves the log: processes that open the store later
// neither index it nor count it corrupt again, and the healthy records
// around it stay.
func TestQuarantineDropsRecordFromLog(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, nil)
	bad, good := resultstore.Key("li", 1000, "aa"), resultstore.Key("fft", 1000, "aa")
	for _, key := range []string{bad, good} {
		if err := s.Put(key, "aa", []byte(`{"cpi":2.0}`)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	var rotted []byte
	rewriteRecord(t, dir, recordOf(t, dir, bad), func(line []byte) {
		i := bytes.Index(line, []byte("2.0"))
		copy(line[i:], "9.9")
		rotted = append([]byte(nil), line...)
	})
	var corrupt uint64
	for i := 0; i < 3; i++ {
		reg := metrics.NewRegistry()
		s := open(t, dir, reg)
		if _, ok := s.Get(bad); ok {
			t.Fatalf("reopen %d: corrupt record served", i)
		}
		if _, ok := s.Get(good); !ok {
			t.Fatalf("reopen %d: healthy record lost", i)
		}
		corrupt += reg.Counter("resultstore_corrupt_entries_total").Value()
		if n := s.Quarantined(); n != 1 {
			t.Errorf("reopen %d: Quarantined() = %d, want 1", i, n)
		}
		s.Close()
	}
	if corrupt != 1 {
		t.Errorf("corrupt entries counted %d times over three opens, want 1", corrupt)
	}
	log, err := os.ReadFile(filepath.Join(dir, resultstore.LogName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(log, rotted) {
		t.Error("the quarantined record is still in the log")
	}
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
		copies := dirs
		for _, dir := range copies {
			rewriteRecord(t, dir, records(t, dir)[0], garble)
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
			// Stamp strictly increasing write times so the prune order is
			// stable whatever the clock's resolution.
			for _, dir := range dirs {
				stampWriteTime(t, dir, k, time.Now().Add(time.Duration(i-10)*time.Hour))
			}
		}
		s = openDirs(t, dirs, nil) // read the stamped times
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

// failDir rejects every record append under one directory: a replica
// whose disk refuses writes while its sibling accepts them.
type failDir string

func (failDir) ReadRecord(log *os.File, _ string, p []byte, off int64) (int, error) {
	return log.ReadAt(p, off)
}

func (d failDir) AppendRecord(log *os.File, _ string, data []byte) (int, error) {
	if strings.HasPrefix(log.Name(), string(d)) {
		return 0, fmt.Errorf("injected write failure under %s", string(d))
	}
	return log.Write(data)
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
