package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestMain makes the test binary act as wbsim when WBSIM_MAIN is set, so
// tests can check the command's output and exit status end to end.
func TestMain(m *testing.M) {
	if os.Getenv("WBSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes wbsim with args in a child process and returns its stdout,
// stderr and exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WBSIM_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return out.String(), errOut.String(), code
}

// record writes n instructions of bench to a trace file, followed by
// tail, and returns its path.
func record(t *testing.T, bench string, n uint64, tail string) string {
	t.Helper()
	b, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	var buf bytes.Buffer
	if _, err := trace.Write(&buf, b.Stream(n)); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(tail)
	path := filepath.Join(t.TempDir(), bench+".wbt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceReplayMatchesDirectRun: fenceprod, whose stream carries both
// membar and release barriers, simulates the same from a recorded trace
// file as from the benchmark itself.
func TestTraceReplayMatchesDirectRun(t *testing.T) {
	path := record(t, "fenceprod", 100_000, "")
	direct, stderr, code := run(t, "-bench", "fenceprod", "-n", "100000")
	if code != 0 {
		t.Fatalf("direct run exited %d: %s", code, stderr)
	}
	replay, stderr, code := run(t, "-trace", path)
	if code != 0 {
		t.Fatalf("replay exited %d: %s", code, stderr)
	}
	// Everything but the first line, which names the source.
	_, direct, _ = strings.Cut(direct, "\n")
	_, replay, _ = strings.Cut(replay, "\n")
	if direct != replay {
		t.Errorf("replayed trace differs from the direct run\ndirect:\n%s\nreplay:\n%s", direct, replay)
	}
	if !strings.Contains(direct, "release-drain") {
		t.Errorf("fenceprod run reports no release-drain stalls:\n%s", direct)
	}
}

// TestBadTraceIsFatal: a trace that stops decoding part-way — cut inside
// a record, or holding an unknown record — prints the decode error and
// exits 1 instead of reporting the prefix as the whole run.
func TestBadTraceIsFatal(t *testing.T) {
	for name, tail := range map[string]string{"truncated": "l", "corrupt": "q"} {
		stdout, stderr, code := run(t, "-trace", record(t, "li", 20_000, tail))
		if code != 1 || stdout != "" || !strings.Contains(stderr, "trace:") {
			t.Errorf("%s trace: exit %d, stdout %q, stderr %q; want exit 1 with the decode error",
				name, code, stdout, stderr)
		}
	}
}

// TestDamagedTraceIsFatal: a recorded trace whose records still decode but
// no longer match what was written — its last byte flipped, its trailer
// cut off — fails the trailer check, so wbsim exits 1 with the integrity
// error instead of reporting numbers from the wrong trace.
func TestDamagedTraceIsFatal(t *testing.T) {
	path := record(t, "fenceprod", 100_000, "")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	for name, data := range map[string][]byte{
		"last byte flipped": flipped,
		"trailer cut off":   good[:len(good)-10],
	} {
		bad := filepath.Join(t.TempDir(), "bad.wbt")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		stdout, stderr, code := run(t, "-trace", bad)
		if code != 1 || stdout != "" || !strings.Contains(stderr, "trace:") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 with the integrity error",
				name, code, stdout, stderr)
		}
	}
}

// TestMachineFlagsMatchSpecs pins the flag front end: each flag set's
// -dump-config output hashes to the canonical machconf hash recorded for
// it, and is byte-identical to the output of the same machine given as a
// -config spec.
func TestMachineFlagsMatchSpecs(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		spec  string
		hash  string
	}{
		{nil, "depth=4",
			"d25ca2f471bec36f6cd198671a843e36321020c29063e40d7318c4463165655f"},
		{[]string{"-depth", "12", "-retire", "8", "-hazard", "read-from-WB"},
			"depth=12,retire=8,hazard=read-from-WB",
			"d25b0b3aa637c93381b8ed9e6fbd9d741bd9942029bb86b8098ca3d1d9ff217e"},
		{[]string{"-width", "1"}, "width=1",
			"55c4a04ab300a79d2f0d9be6db0390f7c4a41657253b2a690fe5b3f4eb837a66"},
		{[]string{"-retire", "4", "-aging", "50"}, "retire=4,aging=50",
			"aa2f17590b61083c5e608e51ad55d9de25d0434ee0e9c808e83bc721f06f3cde"},
		{[]string{"-l2size", "524288", "-memlat", "50"}, "l2=524288,memlat=50",
			"c654fc46bfaf9a14129358e507333988d934e356c1bf5d19cb2f92a3d7862c0d"},
		{[]string{"-l1size", "16384", "-l2lat", "10"}, "l1=16384,l2lat=10",
			"64dc69b640246f1c324023a418620bb9bd48f4ffada83667234a1f3f62a18f13"},
		{[]string{"-depth", "8", "-hazard", "flush-partial"}, "depth=8,hazard=flush-partial",
			"69734750c1fad3d39b3731ad59fb85f5b11e4b79d78496a1e38f4ad650e2efe4"},
		{[]string{"-depth", "6", "-width", "2", "-hazard", "flush-item-only"},
			"depth=6,width=2,hazard=flush-item-only",
			"81c2336f5077088568e1585462f3ede18d39c95cd2f03171336340fbfe4e6365"},
		{[]string{"-l2size", "0", "-memlat", "100"}, "l2=0,memlat=100",
			"e50ccf0b6f9fc0614b81af6ebafbf4686ac6aac0e755b43ac814bf1336b617b8"},
		{[]string{"-depth", "16", "-width", "2", "-retire", "12", "-aging", "100",
			"-hazard", "read-from-WB", "-l1size", "4096", "-l2lat", "3",
			"-l2size", "1048576", "-memlat", "40"},
			"depth=16,width=2,retire=12,aging=100,hazard=read-from-WB,l1=4096,l2lat=3,l2=1048576,memlat=40",
			"33c12b7a6866389fe9c28c38c6be56dc2c7dcce4897dcdd2e5b8a94286b0e996"},
	} {
		flagOut, stderr, code := run(t, append(tc.flags, "-dump-config")...)
		if code != 0 {
			t.Errorf("%v: exit %d: %s", tc.flags, code, stderr)
			continue
		}
		sum := sha256.Sum256([]byte(strings.TrimSuffix(flagOut, "\n")))
		if got := hex.EncodeToString(sum[:]); got != tc.hash {
			t.Errorf("%v: -dump-config hashes to %s, want %s", tc.flags, got, tc.hash)
		}
		specOut, stderr, code := run(t, "-config", tc.spec, "-dump-config")
		if code != 0 || specOut != flagOut {
			t.Errorf("%v: -config %s gives exit %d (%s)\n%s\nwant\n%s", tc.flags, tc.spec, code, stderr, specOut, flagOut)
		}
	}
}
