package main

import (
	"bytes"
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
