package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// replica is one directory of the store: the content-addressed entry files
// under one root, read and written through the Disk seam.  It is the disk
// half of the store and knows nothing of the memory tier, the metrics, or
// the other replicas.
type replica struct {
	dir  string
	disk Disk

	// n approximates the entry count so Put can keep the
	// resultstore_disk_entries gauge without a scan.  It is best-effort:
	// putDisk's stat-then-write freshness check races concurrent writers of
	// the same key, so the count can drift.  Every full walk (Stats, Prune)
	// resyncs it to ground truth; nothing load-bearing may read it directly.
	n atomic.Int64
}

// path maps a key to its content-addressed entry file.
func (r *replica) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(r.dir, name[:2], name+".json")
}

// copyState classifies one replica's copy of one entry.
type copyState int

const (
	copyOK copyState = iota
	copyAbsent
	copyUnreadable // an I/O error: the bytes on disk may still be fine
	copyBad        // unparsable, checksum mismatch, or mis-addressed
)

// load reads the entry file at path and validates its envelope: it must
// parse, its checksum must hold, and it must sit at its key's address —
// the one check every read path (Get, scrub, EvictHash) shares.  A copy
// that parses but fails the checksum or address check is still returned,
// so EvictHash can match its machconf hash.
func (r *replica) load(path string) (entry, copyState, error) {
	data, err := r.disk.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return entry{}, copyAbsent, err
	}
	if err != nil {
		return entry{}, copyUnreadable, err
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return entry{}, copyBad, fmt.Errorf("unparsable envelope: %w", err)
	}
	if Checksum(e.CfgHash, e.Payload) != e.Checksum {
		return e, copyBad, errors.New("checksum mismatch")
	}
	if r.path(e.Key) != path {
		return e, copyBad, fmt.Errorf("entry for key %q is not at its address", e.Key)
	}
	return e, copyOK, nil
}

// putDisk writes one entry file atomically: a temp file in the final
// directory, fsync, then rename — a reader (or a crash) can never observe a
// torn entry.
func (r *replica) putDisk(key, cfgHash string, payload []byte) error {
	e := entry{V: 1, Key: key, CfgHash: cfgHash, Checksum: Checksum(cfgHash, payload), Payload: payload}
	blob, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("resultstore: encoding %s: %w", key, err)
	}
	path := r.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	// Stat-then-write is racy when two writers land the same new key at
	// once — both see "fresh" and n double-counts.  Tolerated: the count is
	// advisory (see the field comment) and the next walk resyncs it.
	_, statErr := os.Stat(path)
	if err := r.disk.WriteFile(path, blob); err != nil {
		return fmt.Errorf("resultstore: writing %s: %w", key, err)
	}
	if statErr != nil {
		r.n.Add(1)
	}
	return nil
}

// remove deletes one entry file, reporting whether it was there to delete:
// only a successful remove may decrement the entry count.
func (r *replica) remove(path string) bool {
	if os.Remove(path) != nil {
		return false
	}
	r.n.Add(-1)
	return true
}

// quarantine moves a failed entry into the root's quarantine/ subdirectory
// so the corruption is preserved for inspection but never served, and
// returns where it went.  The ".corrupt" suffix keeps quarantined files out
// of walks.
func (r *replica) quarantine(path string) string {
	qdir := filepath.Join(r.dir, QuarantineDir)
	dst := filepath.Join(qdir, filepath.Base(path)+".corrupt")
	err := os.MkdirAll(qdir, 0o755)
	if err == nil {
		err = os.Rename(path, dst)
	}
	if err != nil {
		os.Remove(path) // last resort: make the bad bytes unreachable
		return "(removed)"
	}
	return dst
}

// quarantined counts the corrupt entries in the quarantine subdirectory.
func (r *replica) quarantined() int {
	names, err := os.ReadDir(filepath.Join(r.dir, QuarantineDir))
	if err != nil {
		return 0
	}
	n := 0
	for _, d := range names {
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".corrupt") {
			n++
		}
	}
	return n
}

// walk visits every entry file with its root-relative name
// ("ab/ab…cd.json") and file info, and returns the entry count and total
// size.  Quarantined files carry a ".corrupt" suffix and never match; a
// walk that finds every entry resyncs the entry count.
func (r *replica) walk(visit func(rel string, info fs.FileInfo)) (int, int64, error) {
	n, bytes := 0, int64(0)
	err := filepath.WalkDir(r.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent rename; skip
		}
		n++
		bytes += info.Size()
		if visit != nil {
			rel, _ := filepath.Rel(r.dir, path)
			visit(rel, info)
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("resultstore: scanning %s: %w", r.dir, err)
	}
	r.n.Store(int64(n))
	return n, bytes, nil
}
