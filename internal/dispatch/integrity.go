package dispatch

import "crypto/sha256"

// Result integrity: a worker attests each measurement with a checksum over
// the job's canonical machconf hash plus the exact response payload bytes.
// The dispatcher recomputes the sum on receipt, so a payload that was
// truncated, garbled, or bit-flipped anywhere between the worker's encoder
// and the coordinator's decoder is rejected as a worker fault and retried
// elsewhere instead of flowing silently into a sweep, a Pareto frontier,
// or a paper table.  Binding the config hash into the sum also rejects a
// response that answers a *different* job (a confused proxy or worker).
//
// The checksum travels in the ChecksumHeader response header, so the
// measurement JSON itself is unchanged and old coordinators interoperate
// with new workers (they ignore the header) and vice versa (a response
// without the header is accepted unverified; a VerifyFraction sample is
// the defense against such workers).
//
// Checksums catch transport- and encode-side corruption.  A worker whose
// *simulation* is wrong computes a valid checksum over a wrong answer;
// RemoteOptions.VerifyFraction closes that hole by re-executing a seeded
// sample of remote jobs locally — every job is deterministic, so any
// divergence is proof of a fault and aborts the sweep loudly.

// ChecksumHeader is the HTTP response header carrying a measurement's
// integrity checksum (resultstore.Checksum) on the POST /job worker
// surface.
const ChecksumHeader = "X-WB-Measurement-Checksum"

// sampleHash makes the deterministic inclusion decision for a verification
// sample: jobs whose seeded key-hash falls below fraction are selected.
// The decision depends only on (key, seed), so the same jobs verify on
// every run regardless of scheduling, retries, or pool size.
func sampleHash(key string, seed uint64, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	if fraction >= 1 {
		return true
	}
	h := sha256.New()
	var sb [8]byte
	for i := range sb {
		sb[i] = byte(seed >> (8 * i))
	}
	h.Write(sb[:])
	h.Write([]byte(key))
	sum := h.Sum(nil)
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(sum[i])
	}
	return float64(v)/float64(1<<63)/2 < fraction
}
