// Package resultstore is the platform's content-addressed result store:
// a durable map from the canonical simulation key — `bench|n|machconf-hash`,
// the same string the wbserve LRU and the job queue key on — to the
// finished measurement's JSON payload.
//
// Every simulation in this repository is a pure function of that key (the
// workload suite is deterministic and the machconf hash covers the whole
// machine), so a stored result is exactly what a re-execution would produce
// and may be shared freely: across requests, across tenants, across process
// restarts, and across the wbserve / wbexp / wbopt binaries.  The store is
// how "no simulation is ever paid for twice" becomes a property of the
// deployment rather than of one process's memory.
//
// Layout and integrity.  Each replica root holds one append-only log,
// entries.log (LogName), of newline-terminated records:
//
//	<address> <write time> <envelope>
//
// The address is the first 64 bits of the key's SHA-256 and the write time
// is in Unix nanoseconds, both as 16 hex digits; the envelope is a JSON
// object carrying the key, the machine's canonical machconf hash, the
// payload, and a checksum in the result-integrity format (hex SHA-256 over
// `hash\npayload`, Checksum, which dispatch's POST /job responses carry
// too).  An in-memory index maps each address to its newest record, built
// by scanning the log at Open; a lookup the index cannot answer re-scans
// only the tail other processes appended since.  Reads verify the checksum
// and that the key hashes to the record's address before returning; a
// corrupt record counts as a miss, is copied into the root's `quarantine/`
// subdirectory (preserved for inspection) and unindexed, and the affected
// job simply re-simulates.  Put appends one record with one write and
// fdatasyncs it before returning.  A record torn by a crash is never
// indexed, and the next append starts on a fresh line.  The log is created
// by the first Put, so opening an empty directory creates nothing.  The
// replicas rely on flock(2) and fdatasync(2), so the disk tier is Linux's.
//
// Tiers and replicas.  One Store is a bounded in-memory LRU tier over zero
// or more directory replicas, the same structure at every replica count:
//
//   - zero replicas (Open with an empty directory) is a memory-only store:
//     the LRU tier works as usual and nothing is written to disk;
//   - one replica is the durable store;
//   - two or more mirror each other.  Put writes every replica and
//     succeeds if one accepted the write; Get takes the first healthy copy
//     and read-repairs the replicas it passed over; a background scrubber
//     (Options.ScrubInterval) verifies every copy and heals corrupt or
//     missing ones from any healthy replica, so the store survives disk
//     corruption and whole-replica loss without re-simulating anything.
//
// docs/SERVING.md is the operator guide: sizing, garbage collection
// (Prune), replication, scrubbing, and the cache-poisoning and disk-fault
// runbooks built on the admin API.
package resultstore

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Key renders the canonical store key for one simulation: the benchmark
// name, the dynamic instruction count, and the machine's canonical machconf
// content hash, joined the way the wbserve result cache has always keyed.
func Key(bench string, n uint64, cfgHash string) string {
	return fmt.Sprintf("%s|%d|%s", bench, n, cfgHash)
}

// Checksum is the entry-integrity sum: the hex SHA-256 of the canonical
// machconf hash, a newline, and the payload bytes.  dispatch's workers
// attest their POST /job responses with it too, so one attestation
// construction protects a measurement at rest and in flight.
func Checksum(cfgHash string, payload []byte) string {
	h := sha256.New()
	h.Write([]byte(cfgHash))
	h.Write([]byte{'\n'})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// QuarantineDir is the subdirectory of a replica root that holds copies of
// quarantined corrupt records, one `<address>-<offset>.corrupt` file each.
const QuarantineDir = "quarantine"

// entry is the on-disk envelope, the JSON object that ends each record.
type entry struct {
	V        int             `json:"v"`
	Key      string          `json:"key"`
	CfgHash  string          `json:"config_hash"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// Disk is the store's fault seam: every record read and every record
// append goes through it, so deterministic disk faults — bitrot, torn
// writes, ENOSPC, read errors — can be injected from the outside
// (internal/faultline's DiskInjector implements this interface
// structurally).  id names the record's key by its address, 16 hex digits
// that are the same in every replica, run and machine, so a fault schedule
// can target keys.  The zero value of a store uses the real filesystem.
type Disk interface {
	// ReadRecord reads len(p) bytes of key id's record at off in the log,
	// io.ReaderAt semantics.
	ReadRecord(log *os.File, id string, p []byte, off int64) (int, error)
	// AppendRecord appends data, which holds key id's record, to the log
	// (opened O_APPEND) with one write, os.File.Write semantics.
	AppendRecord(log *os.File, id string, data []byte) (int, error)
}

// osDisk is the real filesystem.
type osDisk struct{}

func (osDisk) ReadRecord(log *os.File, _ string, p []byte, off int64) (int, error) {
	return log.ReadAt(p, off)
}

func (osDisk) AppendRecord(log *os.File, _ string, data []byte) (int, error) { return log.Write(data) }

// KV is the minimal Get/Put surface the dispatch layer consumes
// (dispatch.Cached); Store satisfies it, and tests substitute doubles.
type KV interface {
	Get(key string) ([]byte, bool)
	Put(key, cfgHash string, payload []byte) error
}

// Options configures Open, OpenDirs and OpenSpec.
type Options struct {
	// MemoryEntries bounds the in-memory LRU tier; values below 1 select
	// the default of 256.
	MemoryEntries int
	// Metrics, when non-nil, receives the resultstore_* series (hits split
	// by tier, misses, writes, corrupt-record detections, evictions, disk
	// entries) and the sim_store_* scrub, repair and replica series.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives operational events: corrupt entries
	// quarantined, degraded writes, repairs, GC sweeps, evictions by hash.
	Logf func(format string, args ...any)
	// Disk, when non-nil, replaces the real filesystem for record reads and
	// appends — the deterministic disk-fault seam.  Opening, scanning,
	// locking and rewriting the log stay real: faults target records, not
	// the log as a whole.
	Disk Disk
	// ScrubInterval, when positive, starts the background scrubber on a
	// store of two or more replicas; passes run on a ±20%-jittered
	// interval until Close.  A store with fewer replicas has nothing to
	// repair from and runs no scrubber (Verify still runs one pass).
	ScrubInterval time.Duration
}

// Store is the result store: a bounded memory tier over zero or more
// directory replicas.  All methods are safe for concurrent use, including
// concurrently with a running scrub; the replicas additionally tolerate
// multiple processes sharing one directory (appends and log rewrites hold
// the log's flock, and two writers of one key write identical content,
// which determinism guarantees).  The sim_store_scrub_* /
// sim_store_repair_* series expose every scrub and repair decision;
// docs/SERVING.md's disk-fault runbook is built on them.
type Store struct {
	replicas []*replica
	mem      *lru
	logf     func(format string, args ...any)

	hitsMem  *metrics.Counter
	hitsDisk *metrics.Counter
	misses   *metrics.Counter
	writes   *metrics.Counter
	corrupt  *metrics.Counter
	evicted  *metrics.Counter
	degraded *metrics.Counter
	putFails *metrics.Counter
	entries  *metrics.Gauge

	scrubRuns    *metrics.Counter
	scrubEntries *metrics.Counter
	scrubCorrupt *metrics.Counter
	scrubMissing *metrics.Counter
	scrubUnrecov *metrics.Counter
	repairs      *metrics.Counter
	repairFails  *metrics.Counter

	// maint serialises directory-wide maintenance — scrub passes, Prune,
	// EvictHash — so a scrub never repairs a copy back from a replica that
	// a prune or eviction has not reached yet.
	maint sync.Mutex

	lastScrub struct {
		sync.Mutex
		report ScrubReport
		when   time.Time
		passes int
	}

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// Open opens (creating the directory if needed) the store rooted at dir.
// An empty dir selects a memory-only store: the LRU tier works as usual and
// nothing is ever written to disk.
func Open(dir string, opts Options) (*Store, error) {
	var dirs []string
	if dir != "" {
		dirs = []string{dir}
	}
	return OpenDirs(dirs, opts)
}

// OpenSpec opens the store a CLI `-store` flag describes: a
// comma-separated list of replica directories, empty for a memory-only
// store.  This is the one parser wbserve, wbexp, and wbopt share, so
// `-store a` and `-store a,b,c` plug into the same stack everywhere.
func OpenSpec(spec string, opts Options) (*Store, error) {
	var dirs []string
	for _, d := range strings.Split(spec, ",") {
		if d = strings.TrimSpace(d); d != "" {
			dirs = append(dirs, d)
		}
	}
	return OpenDirs(dirs, opts)
}

// OpenDirs opens (creating if needed) a store over the given replica
// directories, in read order; none selects a memory-only store.
func OpenDirs(dirs []string, opts Options) (*Store, error) {
	if opts.MemoryEntries < 1 {
		opts.MemoryEntries = 256
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	disk := opts.Disk
	if disk == nil {
		disk = osDisk{}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Store{
		mem:  newLRU(opts.MemoryEntries),
		logf: logf,
		done: make(chan struct{}),

		hitsMem:  reg.Counter(metrics.Label("resultstore_hits_total", "tier", "memory")),
		hitsDisk: reg.Counter(metrics.Label("resultstore_hits_total", "tier", "disk")),
		misses:   reg.Counter("resultstore_misses_total"),
		writes:   reg.Counter("resultstore_writes_total"),
		corrupt:  reg.Counter("resultstore_corrupt_entries_total"),
		evicted:  reg.Counter("resultstore_evictions_total"),
		degraded: reg.Counter("sim_store_put_degraded_total"),
		putFails: reg.Counter("resultstore_put_failures_total"),
		entries:  reg.Gauge("resultstore_disk_entries"),

		scrubRuns:    reg.Counter("sim_store_scrub_runs_total"),
		scrubEntries: reg.Counter("sim_store_scrub_entries_total"),
		scrubCorrupt: reg.Counter("sim_store_scrub_corrupt_total"),
		scrubMissing: reg.Counter("sim_store_scrub_missing_total"),
		scrubUnrecov: reg.Counter("sim_store_scrub_unrecoverable_total"),
		repairs:      reg.Counter("sim_store_repair_total"),
		repairFails:  reg.Counter("sim_store_repair_failures_total"),
	}
	for _, dir := range dirs {
		if dir == "" {
			return nil, errors.New("resultstore: replica directories must be non-empty paths")
		}
		r, err := newReplica(dir, disk, logf)
		if err != nil {
			return nil, err
		}
		s.replicas = append(s.replicas, r)
	}
	s.syncEntries()
	reg.Gauge("sim_store_replicas").Set(float64(len(s.replicas)))
	if opts.ScrubInterval > 0 && len(s.replicas) > 1 {
		s.wg.Add(1)
		go s.scrubLoop(opts.ScrubInterval)
	}
	return s, nil
}

// Dirs reports the replica roots in read order, none for a memory-only
// store.
func (s *Store) Dirs() []string {
	out := make([]string, len(s.replicas))
	for i, r := range s.replicas {
		out[i] = r.dir
	}
	return out
}

// Close stops the background scrubber, if one runs, waits for an
// in-flight pass to finish, and closes the replicas' logs (a later call
// reopens them).  Idempotent.
func (s *Store) Close() error {
	s.closeOnce.Do(func() { close(s.done) })
	s.wg.Wait()
	for _, r := range s.replicas {
		r.close()
	}
	return nil
}

// syncEntries publishes the widest replica's entry count — the figure
// Stats reports — on the resultstore_disk_entries gauge.
func (s *Store) syncEntries() {
	widest := 0
	for _, r := range s.replicas {
		widest = max(widest, r.entries())
	}
	s.entries.Set(float64(widest))
}

// Get returns the stored payload for key.  The memory tier answers first;
// then the replicas in order, and the first healthy copy wins: it is
// promoted into the memory tier, counted under the disk tier label, and
// read-repaired into every replica the lookup passed over.  A corrupt copy
// is quarantined (copied into quarantine/ and unindexed) on the way.
func (s *Store) Get(key string) ([]byte, bool) {
	if p, ok := s.mem.get(key); ok {
		s.hitsMem.Inc()
		return p, true
	}
	addr := addrOf(key)
	for i, r := range s.replicas {
		e, at, st, err := r.load(addr)
		if st == copyOK && e.Key != key {
			st = copyAbsent // another key with the same 64-bit address
		}
		if st == copyBad {
			s.quarantine(r, addr, at, err)
		}
		if st != copyOK {
			continue
		}
		for _, passed := range s.replicas[:i] {
			s.repair(passed, e)
		}
		s.mem.put(key, e.CfgHash, e.Payload)
		s.hitsDisk.Inc()
		return e.Payload, true
	}
	s.misses.Inc()
	return nil, false
}

// quarantine takes a corrupt copy out of the lookup path; the job
// re-simulates, or is repaired from a healthy replica.
func (s *Store) quarantine(r *replica, addr uint64, at loc, cause error) {
	s.corrupt.Inc()
	s.logf("resultstore: quarantined corrupt record %016x at %s:%d → %s: %v", addr, r.logPath(), at.off, r.quarantine(addr, at), cause)
}

// repair appends a healthy copy to a replica, reporting success.  It
// writes the disk record only, leaving the memory tier's recency order
// alone.
func (s *Store) repair(r *replica, e entry) bool {
	if err := s.putDisk(r, e.Key, e.CfgHash, e.Payload); err != nil {
		s.repairFails.Inc()
		s.logf("resultstore: repair of %s into %s failed: %v", e.Key, r.dir, err)
		return false
	}
	s.repairs.Inc()
	return true
}

// putDisk appends one replica's record, counting the write and publishing
// the entry count.
func (s *Store) putDisk(r *replica, key, cfgHash string, payload []byte) error {
	err := r.append(key, cfgHash, payload)
	if err == nil {
		s.writes.Inc()
	}
	s.syncEntries()
	return err
}

// Put stores a payload under key, attested by the machine's canonical
// machconf hash, in the memory tier and in every replica.  It succeeds
// when at least one replica accepted the write; a degraded write is
// counted and logged, and the scrubber (or read-repair) completes the
// mirror once the sick replica recovers.  Only a total failure is an
// error, counted as resultstore_put_failures_total.  The memory tier is
// updated even then: the result is correct, and serving it for this
// process's lifetime is the point.  Nothing else records that a result
// exists — a job is done exactly while the store holds its key — so an
// entry that is only in memory is re-run after a restart.
func (s *Store) Put(key, cfgHash string, payload []byte) error {
	s.mem.put(key, cfgHash, payload)
	stored := 0
	var firstErr error
	for _, r := range s.replicas {
		if err := s.putDisk(r, key, cfgHash, payload); err != nil {
			firstErr = cmp.Or(firstErr, err)
			s.logf("resultstore: replica %s rejected put %s: %v", r.dir, key, err)
			continue
		}
		stored++
	}
	switch {
	case stored == 0 && firstErr != nil:
		s.putFails.Inc()
		return fmt.Errorf("resultstore: put %s failed on every replica: %w", key, firstErr)
	case stored < len(s.replicas):
		s.degraded.Inc()
	}
	return nil
}

// ScrubReport is one scrub pass's findings.
type ScrubReport struct {
	// Entries is the number of distinct entries examined (the union of all
	// replicas' indexes).
	Entries int `json:"entries"`
	// Healthy counts entries whose every replica copy verified clean.
	Healthy int `json:"healthy"`
	// CorruptCopies counts replica copies that failed checksum or envelope
	// validation (or could not be read while a healthy copy could replace
	// them) and were quarantined.
	CorruptCopies int `json:"corrupt_copies"`
	// MissingCopies counts replica copies that were absent (a wiped or
	// newly added replica shows up here until healed).
	MissingCopies int `json:"missing_copies"`
	// Repaired counts copies rewritten from a healthy replica this pass.
	Repaired int `json:"repaired"`
	// RepairFailures counts repair writes that themselves failed (disk
	// full, injected ENOSPC); the next pass retries them.
	RepairFailures int `json:"repair_failures"`
	// Unrecoverable counts entries with no healthy copy in any replica;
	// their next Get misses and the job re-simulates.
	Unrecoverable int `json:"unrecoverable"`
}

// Scrub runs one synchronous pass over the union of every replica's
// entries: verify every copy, quarantine corrupt ones, and repair corrupt
// and missing copies from any healthy replica.  An unreadable copy is
// quarantined only when a healthy copy can replace it; otherwise it stays
// for a later pass.  An entry with no healthy copy anywhere is counted
// unrecoverable and left to re-simulation — the one cost determinism makes
// merely a cache miss, never data loss.  Passes are serialised with each
// other and with Prune and EvictHash; Get/Put remain safe (and answer from
// healthy copies) while a pass runs.
func (s *Store) Scrub() ScrubReport {
	s.maint.Lock()
	defer s.maint.Unlock()
	s.scrubRuns.Inc()

	// The union of addresses across replicas: a copy missing everywhere
	// is invisible (nothing to repair from), which is exactly right.
	union := map[uint64]bool{}
	for _, r := range s.replicas {
		idx, err := r.snapshot()
		if err != nil {
			s.logf("resultstore: scrub scan of %s: %v", r.dir, err)
		}
		for addr := range idx {
			union[addr] = true
		}
	}

	var rep ScrubReport
	states := make([]copyState, len(s.replicas))
	causes := make([]error, len(s.replicas))
	locs := make([]loc, len(s.replicas))
	for addr := range union {
		rep.Entries++
		s.scrubEntries.Inc()

		var healthy *entry
		for i, r := range s.replicas {
			e, at, st, err := r.load(addr)
			states[i], causes[i], locs[i] = st, err, at
			if st == copyOK && healthy == nil {
				healthy = &e
			}
		}

		allOK := true
		for i, r := range s.replicas {
			switch st := states[i]; {
			case st == copyOK:
				continue
			case st == copyAbsent:
				rep.MissingCopies++
				s.scrubMissing.Inc()
			case st == copyBad || healthy != nil:
				rep.CorruptCopies++
				s.scrubCorrupt.Inc()
				s.quarantine(r, addr, locs[i], causes[i])
			}
			allOK = false
			if healthy == nil {
				continue
			}
			if s.repair(r, *healthy) {
				rep.Repaired++
			} else {
				rep.RepairFailures++
			}
		}
		if allOK {
			rep.Healthy++
		}
		if healthy == nil {
			rep.Unrecoverable++
			s.scrubUnrecov.Inc()
			s.logf("resultstore: scrub: record %016x has no healthy copy in any replica; it will re-simulate on demand", addr)
		}
	}

	s.lastScrub.Lock()
	s.lastScrub.report = rep
	s.lastScrub.when = time.Now()
	s.lastScrub.passes++
	s.lastScrub.Unlock()

	if rep.CorruptCopies > 0 || rep.MissingCopies > 0 || rep.Unrecoverable > 0 {
		s.logf("resultstore: scrub pass: %d entries, %d corrupt copies quarantined, %d missing, %d repaired, %d unrecoverable",
			rep.Entries, rep.CorruptCopies, rep.MissingCopies, rep.Repaired, rep.Unrecoverable)
	}
	return rep
}

// LastScrub reports the most recent pass's findings, when it ran, and how
// many passes have completed — the admin status endpoint's scrub block.
func (s *Store) LastScrub() (rep ScrubReport, when time.Time, passes int) {
	s.lastScrub.Lock()
	defer s.lastScrub.Unlock()
	return s.lastScrub.report, s.lastScrub.when, s.lastScrub.passes
}

// scrubLoop runs Scrub on a jittered interval until Close.  The jitter
// (±20%) keeps a fleet of processes sharing replica directories from
// synchronising their scan I/O.
func (s *Store) scrubLoop(interval time.Duration) {
	defer s.wg.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		d := interval + time.Duration((rng.Float64()-0.5)*0.4*float64(interval))
		select {
		case <-s.done:
			return
		case <-time.After(d):
			s.Scrub()
		}
	}
}

// Verify runs one synchronous scrub pass — the first step of the
// cache-poisoning runbook in docs/SERVING.md — and reports ok, the number
// of entries left with a healthy copy, and corrupt, the number of copies
// quarantined.  The pass leaves the store clean; the counts let the
// operator decide whether to dig further.  A replica that cannot be scanned
// is logged, not returned: its entries count missing and are healed from
// the others.  This is what POST /admin/store/verify calls.
func (s *Store) Verify() (ok, corrupt int, err error) {
	rep := s.Scrub()
	return rep.Entries - rep.Unrecoverable, rep.CorruptCopies, nil
}

// EvictHash removes every entry whose machine is the given canonical
// machconf hash, across all benchmarks and instruction counts — the
// runbook's targeted response when one configuration's results are
// suspect.  The memory tier drops exactly the entries carrying that hash;
// unrelated hot entries stay resident.  Each replica's log is rewritten
// without them.  Returns how many copies were removed across replicas.
func (s *Store) EvictHash(cfgHash string) (int, error) {
	s.mem.evictHash(cfgHash)
	s.maint.Lock()
	defer s.maint.Unlock()
	removed := 0
	var firstErr error
	for _, r := range s.replicas {
		n, err := r.rewrite(func(addr uint64, data []byte) bool {
			e, _, _ := decode(addr, data)
			return e.CfgHash == cfgHash
		})
		removed += n
		s.evicted.Add(uint64(n))
		firstErr = cmp.Or(firstErr, err)
	}
	s.syncEntries()
	if removed > 0 {
		s.logf("resultstore: evicted %d entries for config hash %s", removed, cfgHash)
	}
	return removed, firstErr
}

// Prune is the store's garbage collector: when the replicas hold more than
// maxEntries distinct entries, the oldest are removed until the bound
// holds, and returns how many copies were removed.  One victim set is
// computed over the union of every replica's entries — each entry aged by
// the NEWEST copy any replica holds (the write time its record carries),
// address as the tie-break — and that same set is removed from every
// replica by rewriting its log.  Pruning each replica independently looks
// equivalent but is not: repairs append fresh copies per replica, so each
// replica would keep a different survivor set, the scrubber would heal
// every victim back from the others, and prune+scrub would ping-pong
// forever.  Safe to run while the store serves.
func (s *Store) Prune(maxEntries int) (int, error) {
	if maxEntries < 0 {
		return 0, nil
	}
	s.maint.Lock()
	defer s.maint.Unlock()

	newest := map[uint64]int64{} // address → newest copy's write time anywhere
	for _, r := range s.replicas {
		idx, err := r.snapshot()
		if err != nil {
			return 0, err
		}
		for addr, at := range idx {
			newest[addr] = max(newest[addr], at.t)
		}
	}
	if len(newest) <= maxEntries {
		s.syncEntries()
		return 0, nil
	}
	order := make([]uint64, 0, len(newest))
	for addr := range newest {
		order = append(order, addr)
	}
	sort.Slice(order, func(i, j int) bool {
		if a, b := newest[order[i]], newest[order[j]]; a != b {
			return a < b
		}
		return order[i] < order[j]
	})
	victims := map[uint64]bool{}
	for _, addr := range order[:len(order)-maxEntries] {
		victims[addr] = true
	}
	removed := 0
	var firstErr error
	for _, r := range s.replicas {
		n, err := r.rewrite(func(addr uint64, _ []byte) bool { return victims[addr] })
		removed += n
		s.evicted.Add(uint64(n))
		firstErr = cmp.Or(firstErr, err)
	}
	s.syncEntries()
	if removed > 0 {
		s.logf("resultstore: pruned %d entries (%d copies) down to bound %d", len(victims), removed, maxEntries)
	}
	return removed, firstErr
}

// ReplicaStat is one replica's view for the admin status endpoint.
type ReplicaStat struct {
	Dir         string `json:"dir"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	Quarantined int    `json:"quarantined"`
}

// ReplicaStats catches every replica's index up with its log and reports
// its entry count (the index's, exact), its log's size in bytes (superseded
// copies included, until a Prune or EvictHash rewrites the log), and its
// quarantine population.
func (s *Store) ReplicaStats() []ReplicaStat {
	out := make([]ReplicaStat, len(s.replicas))
	for i, r := range s.replicas {
		n, size := r.stat()
		out[i] = ReplicaStat{Dir: r.dir, Entries: n, Bytes: size, Quarantined: r.quarantined()}
	}
	s.syncEntries()
	return out
}

// Stats reports the widest replica's entry count and log size (replicas
// converge on the same contents; the max is the least surprising single
// number while one of them is healing), plus the memory tier's entry
// count.  Per-replica truth is ReplicaStats.
func (s *Store) Stats() (diskEntries int, diskBytes int64, memEntries int) {
	for _, st := range s.ReplicaStats() {
		diskEntries = max(diskEntries, st.Entries)
		diskBytes = max(diskBytes, st.Bytes)
	}
	return diskEntries, diskBytes, s.mem.len()
}

// Quarantined reports how many corrupt copies sit in the replicas'
// quarantine subdirectories — the admin status endpoint's "how bad was it"
// figure.
func (s *Store) Quarantined() int {
	n := 0
	for _, r := range s.replicas {
		n += r.quarantined()
	}
	return n
}
