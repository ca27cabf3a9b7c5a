package main

import (
	"bytes"
	"errors"
	"hash/fnv"
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

// recordDigests pin the bytes `wbtrace -record` writes (FNV-64a of the
// whole file) for a synthetic benchmark and for a kernel with long Exec
// runs, at -n 200000.  They were recorded when trace.Write read one
// reference per Next, so a batched writer must merge adjacent Exec runs
// into the same records and produce the same file.
var recordDigests = map[string]uint64{
	"li":  0xa24356441ea9fe58,
	"fft": 0xbaa204baf0e1d514,
}

// TestRecordBytesPinned: the recorded WBT2 file is byte-identical to the
// pinned one.
func TestRecordBytesPinned(t *testing.T) {
	for _, bench := range []string{"li", "fft"} {
		path := filepath.Join(t.TempDir(), bench+".wbt")
		cmd := exec.Command(os.Args[0], "-bench", bench, "-n", "200000", "-record", path)
		cmd.Env = append(os.Environ(), "WBTRACE_MAIN=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s: %v: %s", bench, err, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		if got, want := h.Sum64(), recordDigests[bench]; got != want {
			t.Errorf("%s: file digest %#016x (%d bytes), recorded %#016x", bench, got, len(data), want)
		}
	}
}
