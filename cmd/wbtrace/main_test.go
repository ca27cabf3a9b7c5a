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

// TestMain makes the test binary act as wbtrace when WBTRACE_MAIN is set,
// so tests can check the command's output and exit status end to end.
func TestMain(m *testing.M) {
	if os.Getenv("WBTRACE_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadReplayIsFatal: replaying a trace that stops decoding part-way —
// cut inside a record, or holding an unknown record — prints the decode
// error and exits 1 instead of analysing the prefix as the whole trace.
func TestBadReplayIsFatal(t *testing.T) {
	b, _ := workload.ByName("li")
	var good bytes.Buffer
	if _, err := trace.Write(&good, b.Stream(20_000)); err != nil {
		t.Fatal(err)
	}
	for name, tail := range map[string]string{"intact": "", "truncated": "l", "corrupt": "q"} {
		path := filepath.Join(t.TempDir(), name+".wbt")
		if err := os.WriteFile(path, append(bytes.Clone(good.Bytes()), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "-replay", path)
		cmd.Env = append(os.Environ(), "WBTRACE_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatal(err)
			}
			code = exit.ExitCode()
		}
		if tail == "" {
			if code != 0 || !strings.Contains(stdout.String(), "refs        20000") {
				t.Errorf("intact trace: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
			}
			continue
		}
		if code != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "trace:") {
			t.Errorf("%s trace: exit %d, stdout %q, stderr %q; want exit 1 with the decode error",
				name, code, stdout.String(), stderr.String())
		}
	}
}
