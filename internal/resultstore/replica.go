package resultstore

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// LogName is the file under each replica root that holds the replica's
// records.
const LogName = "entries.log"

// headerLen is the length of a record's header: the key's address and the
// write time, each 16 hex digits and each followed by a space.
const headerLen = 34

// replica is one directory of the store: the append-only log of records
// under one root and the in-memory index from each key's address to its
// newest record, read and appended through the Disk seam.  It is the disk
// half of the store and knows nothing of the memory tier, the metrics, or
// the other replicas.
//
// Several processes may share the directory.  Appends and rewrites hold an
// exclusive flock(2) on the log, so a record's offset is exact, a torn tail
// is fenced off by the next append, and a rewrite never loses a record
// another process appended; a replica that finds the log replaced or
// removed (Prune, EvictHash, or a wiped disk) reopens it and rescans.
type replica struct {
	dir  string
	disk Disk

	mu      sync.Mutex
	f       *os.File       // the open log; nil while there is none
	idx     map[uint64]loc // key address → newest record
	scanned int64          // log bytes indexed; always 0 or just past a '\n'
}

// loc is one record's place in the log.
type loc struct {
	off int64 // first byte of the header
	t   int64 // write time, Unix nanoseconds
	n   int32 // length without the trailing newline
}

// addrOf is a key's address: the first 64 bits of its SHA-256.  The index
// is keyed on it and every record carries it, so a record whose key field
// rotted no longer matches its own header.
func addrOf(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// idOf renders an address the way record headers and the Disk seam name it.
func idOf(addr uint64) string { return fmt.Sprintf("%016x", addr) }

// parseHeader reads a record's address and write time, reporting false for
// a line that is not a record (a torn tail the next append fenced off, or
// garbage).
func parseHeader(line []byte) (addr uint64, t int64, ok bool) {
	var raw [16]byte
	if len(line) <= headerLen || line[16] != ' ' || line[33] != ' ' {
		return 0, 0, false
	}
	if _, err := hex.Decode(raw[:8], line[:16]); err != nil {
		return 0, 0, false
	}
	if _, err := hex.Decode(raw[8:], line[17:33]); err != nil {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(raw[:8]), int64(binary.BigEndian.Uint64(raw[8:])), true
}

// newReplica opens the replica rooted at dir, creating the directory but
// no file in it, and indexes its log when there is one.
func newReplica(dir string, disk Disk, logf func(string, ...any)) (*replica, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	r := &replica{dir: dir, disk: disk, idx: map[uint64]loc{}}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.refreshLocked(); err != nil {
		return nil, err
	}
	if r.f == nil && hasLegacyLayout(dir) {
		logf("resultstore: %s holds per-file entries from an earlier build; they are not read and the replica starts empty (delete its two-hex-digit subdirectories to reclaim the space)", dir)
	}
	return r, nil
}

// hasLegacyLayout reports whether dir holds the `<2-hex>/` subdirectories
// of the earlier one-file-per-entry layout.
func hasLegacyLayout(dir string) bool {
	names, _ := os.ReadDir(dir)
	for _, d := range names {
		if _, err := hex.DecodeString(d.Name()); d.IsDir() && len(d.Name()) == 2 && err == nil {
			return true
		}
	}
	return false
}

func (r *replica) logPath() string { return filepath.Join(r.dir, LogName) }

// refreshLocked brings the index up to date with the log on disk and
// returns the log's size: it drops the index when another process replaced
// or removed the log, opens the log when one exists, and indexes the
// complete records appended since the last scan.  An unterminated tail —
// an append in flight, or a torn one — stays unscanned.  Callers hold mu.
func (r *replica) refreshLocked() (int64, error) {
	onDisk, err := os.Stat(r.logPath())
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("resultstore: %w", err)
	}
	if r.f != nil {
		open, ferr := r.f.Stat()
		if ferr == nil && err == nil && os.SameFile(onDisk, open) && open.Size() >= r.scanned {
			return open.Size(), r.scanLocked(open.Size())
		}
		r.closeLocked()
	}
	if err != nil {
		return 0, nil // no log yet: the first append creates it
	}
	f, err := os.OpenFile(r.logPath(), os.O_RDWR|os.O_APPEND, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("resultstore: %w", err)
	}
	r.f = f
	open, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("resultstore: %w", err)
	}
	return open.Size(), r.scanLocked(open.Size())
}

// closeLocked closes the log and forgets its index.
func (r *replica) closeLocked() {
	if r.f != nil {
		r.f.Close()
	}
	r.f, r.idx, r.scanned = nil, map[uint64]loc{}, 0
}

// scanLocked indexes the complete lines between the last scan and size;
// a later record of an address replaces an earlier one.
func (r *replica) scanLocked(size int64) error {
	if size <= r.scanned {
		return nil
	}
	br := bufio.NewReaderSize(io.NewSectionReader(r.f, r.scanned, size-r.scanned), 64<<10)
	off := r.scanned
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			r.scanned = off
			return fmt.Errorf("resultstore: scanning %s: %w", r.logPath(), err)
		}
		if addr, t, ok := parseHeader(line); ok {
			r.idx[addr] = loc{off: off, t: t, n: int32(len(line) - 1)}
		}
		off += int64(len(line))
	}
	r.scanned = off
	return nil
}

// lockLocked opens the log, creating it when create is set, takes its
// cross-process lock and catches the index up, returning the log's size;
// until unlockLocked no other process appends to or replaces the log.  A
// nil log with a nil error means there is none and create was not set.
func (r *replica) lockLocked(create bool) (int64, error) {
	for {
		if r.f == nil {
			if _, err := r.refreshLocked(); err != nil {
				return 0, err
			}
		}
		if r.f == nil {
			if !create {
				return 0, nil
			}
			if err := os.MkdirAll(r.dir, 0o755); err != nil {
				return 0, fmt.Errorf("resultstore: %w", err)
			}
			f, err := os.OpenFile(r.logPath(), os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
			if err != nil {
				return 0, fmt.Errorf("resultstore: %w", err)
			}
			r.f = f
		}
		locked := r.f
		if err := fdCall(locked, func(fd int) error { return syscall.Flock(fd, syscall.LOCK_EX) }); err != nil {
			return 0, fmt.Errorf("resultstore: locking %s: %w", r.logPath(), err)
		}
		// The log may have been replaced while this process waited.
		size, err := r.refreshLocked()
		if err == nil && r.f == locked {
			return size, nil
		}
		if r.f == locked {
			r.unlockLocked()
		}
		if err != nil {
			return 0, err
		}
	}
}

func (r *replica) unlockLocked() {
	fdCall(r.f, func(fd int) error { return syscall.Flock(fd, syscall.LOCK_UN) })
}

// datasync flushes f's data to stable storage.
func datasync(f *os.File) error { return fdCall(f, syscall.Fdatasync) }

// fdCall runs a system call on f's descriptor, which f keeps open
// meanwhile.
func fdCall(f *os.File, call func(fd int) error) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	if cerr := rc.Control(func(fd uintptr) { err = call(int(fd)) }); cerr != nil {
		return cerr
	}
	return err
}

// copyState classifies one replica's copy of one entry.
type copyState int

const (
	copyOK copyState = iota
	copyAbsent
	copyUnreadable // an I/O error: the bytes on disk may still be fine
	copyBad        // unparsable, checksum mismatch, or mis-addressed
)

// load reads the newest record of addr and validates it: it must parse,
// its checksum must hold, and its key must hash to the address its header
// carries — the one check every read path (Get, scrub) shares.  It returns
// the record's location so a bad copy can be quarantined precisely.
func (r *replica) load(addr uint64) (entry, loc, copyState, error) {
	data, at, err := r.read(addr)
	if data == nil && err == nil {
		return entry{}, loc{}, copyAbsent, nil
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return entry{}, at, copyBad, errors.New("record runs past the end of the log")
	}
	if err != nil {
		return entry{}, at, copyUnreadable, err
	}
	e, st, err := decode(addr, data)
	return e, at, st, err
}

// read returns the bytes of addr's newest record.  An address the index
// lacks first catches the index up with the log; nil bytes with a nil
// error mean there is no record.
func (r *replica) read(addr uint64) ([]byte, loc, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	at, ok := r.idx[addr]
	if !ok {
		if _, err := r.refreshLocked(); err != nil {
			return nil, loc{}, err
		}
		if at, ok = r.idx[addr]; !ok {
			return nil, loc{}, nil
		}
	}
	data := make([]byte, at.n)
	n, err := r.disk.ReadRecord(r.f, idOf(addr), data, at.off)
	if err == nil && n < len(data) {
		err = io.ErrUnexpectedEOF
	}
	return data, at, err
}

// decode parses one record of addr and validates it.  A record that parses
// but fails the checksum or address check is still returned, so EvictHash
// can match its machconf hash.
func decode(addr uint64, data []byte) (entry, copyState, error) {
	if got, _, ok := parseHeader(data); !ok || got != addr {
		return entry{}, copyBad, errors.New("record header does not carry its address")
	}
	var e entry
	if err := json.Unmarshal(data[headerLen:], &e); err != nil {
		return entry{}, copyBad, fmt.Errorf("unparsable envelope: %w", err)
	}
	if Checksum(e.CfgHash, e.Payload) != e.Checksum {
		return e, copyBad, errors.New("checksum mismatch")
	}
	if addrOf(e.Key) != addr {
		return e, copyBad, fmt.Errorf("record for key %q is not at its address", e.Key)
	}
	return e, copyOK, nil
}

// append writes one record with one write under the log's lock and makes
// it durable before returning.  A log whose tail is torn (a crashed
// writer) gets a newline first, so the new record starts a line of its own.
func (r *replica) append(key, cfgHash string, payload []byte) error {
	e := entry{V: 1, Key: key, CfgHash: cfgHash, Checksum: Checksum(cfgHash, payload), Payload: payload}
	blob, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("resultstore: encoding %s: %w", key, err)
	}
	addr, now := addrOf(key), time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	size, err := r.lockLocked(true)
	if err != nil {
		return fmt.Errorf("resultstore: writing %s: %w", key, err)
	}
	defer r.unlockLocked()
	rec := make([]byte, 0, 1+headerLen+len(blob)+1)
	if size > r.scanned {
		rec = append(rec, '\n')
	}
	start := size + int64(len(rec))
	rec = fmt.Appendf(rec, "%016x %016x ", addr, uint64(now))
	rec = append(append(rec, blob...), '\n')
	n, err := r.disk.AppendRecord(r.f, idOf(addr), rec)
	if err == nil {
		err = datasync(r.f)
	}
	if err != nil {
		return fmt.Errorf("resultstore: writing %s: %w", key, err)
	}
	r.idx[addr] = loc{off: start, t: now, n: int32(headerLen + len(blob))}
	r.scanned = size + int64(n)
	return nil
}

// quarantine copies a bad record into the root's quarantine/ subdirectory
// — preserved for inspection — and drops it from the log, so it is never
// served and no process that opens the log later indexes and counts it
// again; it returns where the copy went.  A record the index has moved
// past (a concurrent repair) is left alone.
func (r *replica) quarantine(addr uint64, at loc) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.idx[addr]; !ok || cur != at {
		return "(already replaced)"
	}
	data := make([]byte, at.n)
	n, _ := r.f.ReadAt(data, at.off)
	data = data[:n]
	qdir := filepath.Join(r.dir, QuarantineDir)
	dst := filepath.Join(qdir, fmt.Sprintf("%016x-%d.corrupt", addr, at.off))
	err := os.MkdirAll(qdir, 0o755)
	if err == nil {
		err = os.WriteFile(dst, data, 0o644)
	}
	if err != nil {
		dst = "(copy failed: " + err.Error() + ")"
	}
	if _, err := r.rewriteLocked(func(a uint64, rec []byte) bool { return a == addr && bytes.Equal(rec, data) }); err != nil {
		dst += " (left in the log: " + err.Error() + ")"
	}
	if r.idx[addr] == at {
		delete(r.idx, addr) // not dropped from the log, but never served
	}
	return dst
}

// quarantined counts the corrupt records in the quarantine subdirectory.
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

// snapshot catches the index up with the log and returns a copy of it.
func (r *replica) snapshot() (map[uint64]loc, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.refreshLocked()
	return maps.Clone(r.idx), err
}

// stat catches the index up with the log and reports its entry count and
// the log's size.
func (r *replica) stat() (int, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	size, _ := r.refreshLocked()
	return len(r.idx), size
}

// entries reports the number of indexed records.
func (r *replica) entries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.idx)
}

// rewrite replaces the log with a copy that keeps only the indexed records
// drop rejects, in log order, by temp file, fdatasync and rename
// (superseded and unindexed records go too), and returns how many it
// dropped.  drop sees each record's bytes.  It holds the log's lock
// throughout, so no other process appends a record the copy would miss.
func (r *replica) rewrite(drop func(addr uint64, data []byte) bool) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rewriteLocked(drop)
}

func (r *replica) rewriteLocked(drop func(addr uint64, data []byte) bool) (int, error) {
	if _, err := r.lockLocked(false); err != nil || r.f == nil {
		return 0, err
	}
	defer func() {
		if r.f != nil {
			r.unlockLocked()
		}
	}()
	addrs := make([]uint64, 0, len(r.idx))
	for addr := range r.idx {
		addrs = append(addrs, addr)
	}
	slices.SortFunc(addrs, func(a, b uint64) int { return cmp.Compare(r.idx[a].off, r.idx[b].off) })
	var buf []byte
	record := func(addr uint64) ([]byte, error) {
		at := r.idx[addr]
		buf = slices.Grow(buf[:0], int(at.n)+1)[:at.n]
		if _, err := r.f.ReadAt(buf, at.off); err != nil && !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("resultstore: rewriting %s: %w", r.logPath(), err)
		}
		return buf, nil
	}
	dropped := map[uint64]bool{}
	for _, addr := range addrs {
		data, err := record(addr)
		if err != nil {
			return 0, err
		}
		if drop(addr, data) {
			dropped[addr] = true
		}
	}
	if len(dropped) == 0 {
		return 0, nil
	}
	tmp, err := os.CreateTemp(r.dir, ".entries-*")
	if err != nil {
		return 0, fmt.Errorf("resultstore: %w", err)
	}
	w := bufio.NewWriter(tmp)
	for _, addr := range addrs {
		if dropped[addr] {
			continue
		}
		data, rerr := record(addr)
		if rerr != nil {
			err = rerr
			break
		}
		w.Write(append(data, '\n'))
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = datasync(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), r.logPath())
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("resultstore: rewriting %s: %w", r.logPath(), err)
	}
	if d, err := os.Open(r.dir); err == nil {
		d.Sync()
		d.Close()
	}
	r.closeLocked() // releases the old log's lock
	_, err = r.refreshLocked()
	return len(dropped), err
}

// close releases the log; the next use reopens it.
func (r *replica) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeLocked()
}
