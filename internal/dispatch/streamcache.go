package dispatch

import (
	"container/list"
	"encoding/binary"
	"io"
	"math/bits"
	"sync"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The stream cache keeps the reference streams Local has generated, so a
// later row over the same (benchmark, n) replays the stream instead of
// generating it again.  A stream is a deterministic function of its name
// and length, so a replay yields exactly the references generation would,
// Exec run lengths included, and every measurement stays byte-identical.
//
// A key's first miss only marks the key seen; its second miss records the
// stream as it is generated, and later rows replay it.  A stream asked for
// once therefore costs its generation and nothing more.  Streams are kept
// in a compact encoding, about 2.3 bytes per reference (see the codes
// below), in chunks of streamChunk bytes.  A reference the code cannot hold
// (an unaligned address, a delta beyond 2^59, a kind above 7) makes the
// recorder decline the stream.
//
// StreamCacheBudget bounds the bytes the cache holds and the bytes its
// recordings in flight hold, together: a recording reserves each chunk
// before it fills it, evicting entries least recently used first to make
// room, and stops, dropping its chunks, when no room is left.  A stream
// that is declined or outgrows the budget on its own is marked
// uncacheable, and later rows over it generate it without recording.
// Marks cost entryBytes of the budget each, so they are bounded too.  Only
// one recording per key runs at a time: a concurrent miss on a key being
// recorded generates on its own rather than waiting.
const (
	// StreamCacheBudget holds the two served working sets (serve_sweep's
	// 17 streams at n = 50 000 take 1.0 MB, serve_mixed's at n = 20 000
	// 0.4 MB) and the whole suite at n = 100 000 (2.0 MB).
	StreamCacheBudget = 4 << 20
	streamChunk       = 32 << 10
	// entryBytes is what an entry costs the budget besides its chunks.
	entryBytes = 128
)

// streams is the process-wide cache every Local shares unless a test gives
// it its own.
var streams = newStreamCache(StreamCacheBudget)

type streamKey struct {
	bench string
	n     uint64
}

type streamCache struct {
	budget int

	mu        sync.Mutex
	lru       *list.List // of *cachedStream, most recently used first
	entries   map[streamKey]*list.Element
	recording map[streamKey]bool
	bytes     int // held by entries and reserved by recordings
}

// cachedStream is one entry: a recorded stream, or a mark.
type cachedStream struct {
	key    streamKey
	state  entryState
	chunks [][]byte
	refs   int
	bytes  int // charged to the budget
}

type entryState uint8

const (
	seenOnce    entryState = iota // missed once: the next miss records
	uncacheable                   // declined, or larger than the budget
	recorded
)

func newStreamCache(budget int) *streamCache {
	return &streamCache{
		budget:    budget,
		lru:       list.New(),
		entries:   make(map[streamKey]*list.Element),
		recording: make(map[streamKey]bool),
	}
}

// generator returns b's stream of length n and whether it is a replay: a
// replay on a hit, a recording generator on a seen key's miss, and b's own
// generator on any other miss.
func (c *streamCache) generator(b workload.Benchmark, n uint64) (trace.Generator, bool) {
	k := streamKey{b.Name, n}
	c.mu.Lock()
	var s *cachedStream
	if e, ok := c.entries[k]; ok {
		c.lru.MoveToFront(e)
		s = e.Value.(*cachedStream)
	} else {
		c.admit(&cachedStream{key: k, state: seenOnce, bytes: entryBytes})
	}
	if s != nil && s.state == recorded {
		c.mu.Unlock()
		return &replay{chunks: s.chunks, left: s.refs}, true
	}
	record := s != nil && s.state == seenOnce && !c.recording[k]
	if record {
		c.recording[k] = true
	}
	c.mu.Unlock()
	if !record {
		return b.Generator(n), false
	}
	return &recorder{g: b.Generator(n), c: c, key: k, live: true}, false
}

// size returns the bytes the cache holds and its recordings have reserved.
func (c *streamCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// admit puts s in the cache in place of its key's entry, evicting least
// recently used entries until the cache fits its budget.
func (c *streamCache) admit(s *cachedStream) {
	if e, ok := c.entries[s.key]; ok {
		c.bytes -= c.lru.Remove(e).(*cachedStream).bytes
	}
	c.entries[s.key] = c.lru.PushFront(s)
	c.bytes += s.bytes
	c.evict()
}

// reserve charges one more chunk to a recording, evicting least recently
// used entries to make room, and reports whether the chunk fits.
func (c *streamCache) reserve() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes += streamChunk
	c.evict()
	if c.bytes > c.budget {
		c.bytes -= streamChunk
		return false
	}
	return true
}

func (c *streamCache) evict() {
	for c.bytes > c.budget && c.lru.Len() > 0 {
		old := c.lru.Remove(c.lru.Back()).(*cachedStream)
		delete(c.entries, old.key)
		c.bytes -= old.bytes
	}
}

// finish ends k's recording, releasing the reserved bytes and admitting s
// unless it is nil.
func (c *streamCache) finish(k streamKey, reserved int, s *cachedStream) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.recording, k)
	c.bytes -= reserved
	if s != nil {
		c.admit(s)
	}
}

// recorder wraps a generator on a seen key's miss: it encodes each batch
// inside Fill, before the caller can edit it, and admits the stream to the
// cache once the generator is exhausted.  A declined, over-budget or closed
// recording admits nothing but, for the first two, an uncacheable mark;
// the references still flow through unchanged.
type recorder struct {
	g      trace.Generator
	c      *streamCache
	key    streamKey
	prev   [8]uint64 // the previous address of each kind
	chunks [][]byte
	cur    []byte
	ctrl   int  // the current group's control byte in cur
	codes  uint // codes in the current group
	refs   int
	bytes  int  // reserved: streamChunk per chunk
	live   bool // still recording
	never  bool // the stream can never be cached
}

func (r *recorder) Fill(buf []trace.Ref) int {
	n := r.g.Fill(buf)
	switch {
	case !r.live:
	case n == 0:
		r.live = false
		if r.cur != nil {
			// Complete the last group with one-byte zero codes, which
			// replay decodes but never hands out, and keep only what
			// the last chunk holds.
			r.cur = append(r.cur, make([]byte, (4-r.codes)&3+codePad)...)
			r.chunks = append(r.chunks, append([]byte(nil), r.cur...))
		}
		s := &cachedStream{key: r.key, state: recorded, chunks: r.chunks, refs: r.refs, bytes: entryBytes}
		for _, ch := range r.chunks {
			s.bytes += cap(ch)
		}
		r.c.finish(r.key, r.bytes, s)
		r.chunks, r.cur = nil, nil
	case !r.record(buf[:n]):
		r.stop()
	}
	return n
}

// Close abandons an unfinished recording and closes the wrapped generator,
// which stops a kernel's producer goroutine.
func (r *recorder) Close() error {
	if r.live {
		r.stop()
	}
	if c, ok := r.g.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

func (r *recorder) stop() {
	r.live = false
	r.chunks, r.cur = nil, nil
	var mark *cachedStream
	if r.never {
		mark = &cachedStream{key: r.key, state: uncacheable, bytes: entryBytes}
	}
	r.c.finish(r.key, r.bytes, mark)
}

// Codes: each reference is one value v = zigzag(Δ)<<3 | kind, where Δ is
// the distance from the previous reference of the same kind, counted in
// words for memory kinds and in instructions for Exec run lengths.  v is
// stored little-endian in 1, 2, 3 or 8 bytes, and the codes go in groups of
// four behind a control byte whose bit pairs, lowest first, give each
// code's size (codeLen).  A group's layout is known from its control byte
// alone, so decoding one code never waits on the one before it.  A chunk
// holds whole groups and ends in codePad zero bytes, so every code can be
// read as 8 bytes.
const (
	groupMax = 1 + 4*8
	codePad  = 8
)

var (
	codeLen  = [4]int{1, 2, 3, 8}
	codeMask = [4]uint64{1<<8 - 1, 1<<16 - 1, 1<<24 - 1, 1<<64 - 1}
	// groupLen is the length of a group with each control byte.
	groupLen [256]int
	// codeShift scales each kind's delta: addresses count words, Exec runs
	// count instructions.
	codeShift = [8]uint8{0, 3, 3, 3, 3, 3, 3, 3}
)

func init() {
	for c := range groupLen {
		groupLen[c] = 1 + codeLen[c&3] + codeLen[c>>2&3] + codeLen[c>>4&3] + codeLen[c>>6]
	}
}

// record appends refs' codes, reporting false when a ref has no code or
// the recording finds no room in the budget.
func (r *recorder) record(refs []trace.Ref) bool {
	cur, ctrl, codes, prev := r.cur, r.ctrl, r.codes, r.prev
	for _, ref := range refs {
		if codes == 0 {
			if cap(cur)-len(cur) < groupMax+codePad {
				if !r.grow(cur) {
					return false
				}
				cur = r.cur
			}
			ctrl = len(cur)
			cur = append(cur, 0)
		}
		k, a := uint64(ref.Kind), uint64(ref.Addr)
		sh := codeShift[k&7]
		d := int64(a - prev[k&7])
		w := d >> sh
		if k > 7 || d != w<<sh || uint64(w+1<<59) >= 1<<60 {
			r.never = true
			return false // no such kind, unaligned, or too far to code
		}
		prev[k] = a
		v := uint64(w<<1^w>>63)<<3 | k
		s := byte(min(max(bits.Len64(v)+7, 8)/8, 4) - 1)
		l := len(cur)
		binary.LittleEndian.PutUint64(cur[l:l+8], v)
		cur = cur[:l+codeLen[s]]
		cur[ctrl] |= s << (2 * codes)
		codes = (codes + 1) & 3
	}
	r.cur, r.ctrl, r.codes, r.prev = cur, ctrl, codes, prev
	r.refs += len(refs)
	return true
}

// grow seals cur, the current chunk, and starts the next, reporting false
// when the stream would outgrow the budget on its own (marking it never
// cacheable) or the budget has no room for another chunk.
func (r *recorder) grow(cur []byte) bool {
	if r.bytes+streamChunk > r.c.budget-entryBytes {
		r.never = true
		return false
	}
	if !r.c.reserve() {
		return false
	}
	r.bytes += streamChunk
	if cur != nil {
		r.chunks = append(r.chunks, append(cur, make([]byte, codePad)...))
	}
	r.cur = make([]byte, 0, streamChunk)
	return true
}

// replay decodes a cached stream into the caller's batches.
type replay struct {
	chunks [][]byte
	cur    []byte
	left   int // refs not yet decoded
	prev   [8]uint64
	// pend holds the rest of a group decoded for a batch too short for
	// all of it.
	pend     [4]trace.Ref
	pendFrom int
	pendTo   int
}

func (r *replay) Fill(buf []trace.Ref) int {
	n := copy(buf, r.pend[r.pendFrom:r.pendTo])
	r.pendFrom += n
	for n < len(buf) && r.left > 0 {
		if len(r.cur) <= codePad {
			r.cur, r.chunks = r.chunks[0], r.chunks[1:]
		}
		if len(buf)-n >= 4 && r.left >= 4 {
			n += r.decode(buf[n:][:min(len(buf)-n, r.left)])
			continue
		}
		r.decode(r.pend[:])
		r.pendTo = min(4, r.left+4)
		r.pendFrom = copy(buf[n:], r.pend[:r.pendTo])
		n += r.pendFrom
	}
	return n
}

// decode fills buf with whole groups from the current chunk until either
// runs out, and returns the number of refs it filled.
func (r *replay) decode(buf []trace.Ref) int {
	c, prev, p, i := r.cur, r.prev, 0, 0
	for end := len(c) - codePad; i+4 <= len(buf) && p < end; i += 4 {
		ctrl := uint(c[p])
		q := p + 1
		p += groupLen[ctrl]
		out := buf[i : i+4 : i+4]
		out[0] = decodeRef(&prev, binary.LittleEndian.Uint64(c[q:]), ctrl)
		q += codeLen[ctrl&3]
		out[1] = decodeRef(&prev, binary.LittleEndian.Uint64(c[q:]), ctrl>>2)
		q += codeLen[ctrl>>2&3]
		out[2] = decodeRef(&prev, binary.LittleEndian.Uint64(c[q:]), ctrl>>4)
		q += codeLen[ctrl>>4&3]
		out[3] = decodeRef(&prev, binary.LittleEndian.Uint64(c[q:]), ctrl>>6)
	}
	r.cur, r.prev = c[p:], prev
	r.left -= i
	return i
}

// decodeRef decodes the code at the start of x whose size selector is the
// low two bits of s.
func decodeRef(prev *[8]uint64, x uint64, s uint) trace.Ref {
	v := x & codeMask[s&3]
	k, z := v&7, v>>3
	a := prev[k] + uint64(int64(z>>1)^-int64(z&1))<<codeShift[k]
	prev[k] = a
	return trace.Ref{Kind: trace.Kind(k), Addr: mem.Addr(a)}
}
