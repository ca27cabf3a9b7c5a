package resultstore_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/resultstore"
)

// countFiles counts the regular files under root.
func countFiles(t *testing.T, root string) int {
	t.Helper()
	n := 0
	filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n++
		}
		return nil
	})
	return n
}

// Opening an empty directory creates nothing, and Puts append to one log
// instead of creating a file per entry.
func TestPutCreatesNoFilePerEntry(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, nil)
	if n := countFiles(t, dir); n != 0 {
		t.Fatalf("Open on an empty directory left %d files, want 0", n)
	}
	put := func(i int) {
		if err := s.Put(resultstore.Key("li", uint64(i), "h"), "h", []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	put(0)
	after1 := countFiles(t, dir)
	for i := 1; i < 200; i++ {
		put(i)
	}
	if n := countFiles(t, dir); n != after1 {
		t.Errorf("200 Puts left %d files under the replica root, 1 Put left %d: want a constant count", n, after1)
	}
	if d, _, _ := s.Stats(); d != 200 {
		t.Errorf("disk entries = %d, want 200", d)
	}
}

// A log cut mid-record — a crash during an append — reopens with every
// earlier entry readable and the torn key a miss, and the next Put starts
// a line of its own, so it survives another reopen.
func TestTornLogTail(t *testing.T) {
	dir := t.TempDir()
	keys := []string{resultstore.Key("li", 1, "h"), resultstore.Key("li", 2, "h"), resultstore.Key("li", 3, "h")}
	s := open(t, dir, nil)
	for i, k := range keys {
		if err := s.Put(k, "h", []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	torn := records(t, dir)[2]
	if err := os.Truncate(filepath.Join(dir, resultstore.LogName), torn.off+int64(len(torn.line))/2); err != nil {
		t.Fatal(err)
	}

	s = open(t, dir, nil)
	for _, k := range keys[:2] {
		if _, ok := s.Get(k); !ok {
			t.Errorf("%s lost to a torn record after it", k)
		}
	}
	if p, ok := s.Get(keys[2]); ok {
		t.Fatalf("torn record served: %s", p)
	}
	next := resultstore.Key("li", 4, "h")
	if err := s.Put(next, "h", []byte(`{"i":4}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s = open(t, dir, nil)
	defer s.Close()
	for _, k := range append(keys[:2:2], next) {
		if _, ok := s.Get(k); !ok {
			t.Errorf("%s unreadable after the second reopen", k)
		}
	}
	if s.Quarantined() != 0 {
		t.Errorf("a torn tail was quarantined; it should simply never be indexed")
	}
}

// Two Stores on one directory — two processes — append concurrently: every
// record lands whole at the offset its writer indexed, and every key reads
// back through both.
func TestTwoStoresShareOneDirectory(t *testing.T) {
	dir := t.TempDir()
	stores := []*resultstore.Store{}
	for range 2 {
		s, err := resultstore.Open(dir, resultstore.Options{MemoryEntries: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		stores = append(stores, s)
	}
	const perWriter = 40
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := stores[w%2]
			for i := range perWriter {
				key := resultstore.Key(fmt.Sprintf("w%d", w), uint64(i), "h")
				if err := s.Put(key, "h", []byte(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i))); err != nil {
					t.Error(err)
				}
				if _, ok := s.Get(key); !ok {
					t.Errorf("%s unreadable right after its Put", key)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(records(t, dir)); n != 4*perWriter {
		t.Errorf("log holds %d whole records, want %d", n, 4*perWriter)
	}
	for w := range 4 {
		for i := range perWriter {
			key := resultstore.Key(fmt.Sprintf("w%d", w), uint64(i), "h")
			want := fmt.Sprintf(`{"w":%d,"i":%d}`, w, i)
			for si, s := range stores {
				if p, ok := s.Get(key); !ok || string(p) != want {
					t.Errorf("store %d: Get(%s) = %q, %v; want %s", si, key, p, ok, want)
				}
			}
		}
	}
}

// A log rewritten by one Store (Prune) is picked up by another Store on
// the same directory: its next append goes to the new log, not the
// replaced one, and the pruned entry stays gone.
func TestRewriteSeenByOtherStore(t *testing.T) {
	dir := t.TempDir()
	a, b := open(t, dir, nil), open(t, dir, nil)
	defer a.Close()
	defer b.Close()
	keys := []string{resultstore.Key("li", 1, "h"), resultstore.Key("li", 2, "h")}
	for _, k := range keys {
		if err := a.Put(k, "h", []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if d, _, _ := b.Stats(); d != 2 {
		t.Fatalf("second store sees %d entries, want 2", d)
	}
	if n, err := a.Prune(1); n != 1 || err != nil {
		t.Fatalf("Prune(1) = %d, %v; want 1 removed", n, err)
	}
	late := resultstore.Key("li", 3, "h")
	if err := b.Put(late, "h", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	fresh := open(t, dir, nil)
	defer fresh.Close()
	if _, ok := fresh.Get(late); !ok {
		t.Error("a Put after another store's rewrite was lost")
	}
	if _, ok := fresh.Get(keys[0]); ok {
		t.Error("the pruned entry came back")
	}
	if _, ok := fresh.Get(keys[1]); !ok {
		t.Error("the surviving entry was lost")
	}
}

// A directory in the per-file layout of an earlier build reads as empty,
// with one logged notice, and is not converted.
func TestLegacyLayoutReadsEmpty(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "ab"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ab", "ab01.json"), []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var notices []string
	s, err := resultstore.Open(dir, resultstore.Options{Logf: func(f string, a ...any) {
		notices = append(notices, fmt.Sprintf(f, a...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if d, _, _ := s.Stats(); d != 0 {
		t.Errorf("legacy directory reads %d entries, want 0", d)
	}
	if len(notices) != 1 || !strings.Contains(notices[0], "earlier build") {
		t.Errorf("notices = %q, want one about the earlier layout", notices)
	}
}

// FuzzEntryLog: arbitrary log bytes never panic Open or Get, and every
// payload Get answers is one the log holds under that key with a checksum
// that verifies.
func FuzzEntryLog(f *testing.F) {
	dir := f.TempDir()
	s, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := range 3 {
		s.Put(resultstore.Key("li", uint64(i), "h"), "h", []byte(fmt.Sprintf(`{"cpi":%d}`, i)))
	}
	s.Close()
	valid, err := os.ReadFile(filepath.Join(dir, resultstore.LogName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Add(bytes.Replace(valid, []byte(`"cpi":1`), []byte(`"cpi":7`), 1))
	f.Add([]byte("\n\n0000000000000000 0000000000000000 {}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, resultstore.LogName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := resultstore.Open(dir, resultstore.Options{MemoryEntries: 1})
		if err != nil {
			return
		}
		defer s.Close()
		type envelope struct {
			Key      string          `json:"key"`
			CfgHash  string          `json:"config_hash"`
			Checksum string          `json:"checksum"`
			Payload  json.RawMessage `json:"payload"`
		}
		held := map[string][]envelope{}
		keys := []string{resultstore.Key("li", 0, "h"), "", "\x00"}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if i := bytes.IndexByte(line, '{'); i >= 0 {
				var e envelope
				if json.Unmarshal(line[i:], &e) == nil {
					held[e.Key] = append(held[e.Key], e)
					keys = append(keys, e.Key)
				}
			}
		}
		for _, k := range keys {
			p, ok := s.Get(k)
			if !ok {
				continue
			}
			verified := false
			for _, e := range held[k] {
				if bytes.Equal(e.Payload, p) && resultstore.Checksum(e.CfgHash, p) == e.Checksum {
					verified = true
				}
			}
			if !verified {
				t.Fatalf("Get(%q) answered %q, which no record with a valid checksum holds", k, p)
			}
		}
		s.Verify()
	})
}
