package dispatch

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutineBaseline polls until the goroutine count settles and returns
// it — background reprobes and finished HTTP keep-alives need a moment to
// park before a leak check is meaningful.
func goroutinesSettle(n int) bool {
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= n {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// Cancelling mid-backoff must end Run in roughly the cancellation time,
// not after the remaining backoff schedule.
func TestCancelDuringBackoffSleep(t *testing.T) {
	worker := &scriptedWorker{script: []func(http.ResponseWriter){respondError(500)}}
	ts := httptest.NewServer(worker)
	defer ts.Close()

	opts := fastOpts(nil)
	opts.MaxRetries = 10
	opts.BaseBackoff = 300 * time.Millisecond
	opts.MaxBackoff = time.Second
	rem, err := NewRemote([]string{ts.URL}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = rem.Run(ctx, testJob())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Run succeeded against an always-failing worker")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error %q does not surface the cancellation", err)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("Run took %v after cancel; the backoff sleep did not honor the context", elapsed)
	}
}

// Cancelling while a hedged pair is in flight must stop both attempts
// promptly and leak no goroutines.
func TestCancelDuringHedgedAttempt(t *testing.T) {
	hang := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte("ok"))
			return
		}
		// Drain the body so the server's background read can detect the
		// client abort, then hold the attempt until the dispatcher gives up.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	workers := []*httptest.Server{
		httptest.NewServer(hang),
		httptest.NewServer(hang),
	}
	for _, ts := range workers {
		defer ts.Close()
	}

	baseline := runtime.NumGoroutine()
	opts := fastOpts(nil)
	opts.MaxRetries = -1 // single attempt; the hang is the whole story
	opts.JobTimeout = 10 * time.Second
	opts.HedgeAfter = 10 * time.Millisecond
	rem, err := NewRemote([]string{workers[0].URL, workers[1].URL}, opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(60 * time.Millisecond) // past the hedge delay: two attempts in flight
		cancel()
	}()
	start := time.Now()
	_, err = rem.Run(ctx, testJob())
	if err == nil {
		t.Fatal("Run succeeded against hung workers")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("Run took %v after cancel with hedged attempts in flight", elapsed)
	}
	rem.Close()
	if !goroutinesSettle(baseline + 2) {
		t.Errorf("goroutines did not settle after cancelled hedged dispatch: baseline %d, now %d",
			baseline, runtime.NumGoroutine())
	}
}

// A caller's cancellation is not the worker's fault on the unhedged path
// either: jobs whose context ends while a healthy worker holds them must
// not count against it, so QuarantineAfter of them leave it in rotation.
func TestCancelUnhedgedKeepsWorkerHealthy(t *testing.T) {
	hang := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte("ok"))
			return
		}
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	ts := httptest.NewServer(hang)
	defer ts.Close()

	opts := fastOpts(nil)
	opts.QuarantineAfter = 2
	opts.JobTimeout = 10 * time.Second
	rem, err := NewRemote([]string{ts.URL}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	for i := 0; i < opts.QuarantineAfter; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := rem.Run(ctx, testJob())
		cancel()
		if err == nil {
			t.Fatal("Run succeeded against a worker that never answers")
		}
	}
	if got := rem.Healthy(); len(got) != 1 {
		t.Errorf("healthy workers after two cancelled jobs = %v, want the one worker", got)
	}
}
