package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// small shrinks a workload so a whole run takes seconds.
func small(name string) workload {
	w := workloads[name]
	w.customers = 150
	w.minSamples = 20
	w.sweepQueries = 10
	w.setupProbes = 2
	if w.follow {
		w.customers = 300
		w.tailBatch = 500
	}
	return w
}

// settle waits for goroutines that are already on their way out (client
// connection loops closing behind Transport.CloseIdleConnections).
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines running, %d before the run:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// leftovers lists what the run left in root besides its trace output.
func leftovers(t *testing.T, root string) []string {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "trace-") {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestRunsLeaveNothingBehind(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    bool
	}{{"ingest", false}, {"restart", false}, {"ingest", true}, {"restart", true}} {
		name := tc.workload
		if tc.trace {
			name += "/traced"
		}
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			base := runtime.NumGoroutine()
			o := options{workload: tc.workload, seed: 3, seconds: 1, trace: tc.trace, root: root}
			res, err := run(context.Background(), o, small(tc.workload), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			want := len(perLayer)
			if !tc.trace {
				want = 5
			}
			if len(res.Metrics) != want {
				t.Fatalf("%d metrics, want %d", len(res.Metrics), want)
			}
			if tc.trace && res.Metrics["core.observe_calls"] != res.Metrics["stream.monitor.windows"] {
				t.Fatalf("core.observe_calls %v != stream.monitor.windows %v", res.Metrics["core.observe_calls"], res.Metrics["stream.monitor.windows"])
			}
			settle(t, base)
			if left := leftovers(t, root); len(left) > 0 {
				t.Fatalf("files left behind: %v", left)
			}
			if _, err := os.Stat(filepath.Join(root, "trace-"+tc.workload+"-seed3.jsonl")); tc.trace && err != nil {
				t.Fatalf("traced run wrote no spans: %v", err)
			}
		})
	}
}

// TestCancelledRunLeavesNothingBehind cancels a run mid-episode, as the
// per-run deadline or SIGINT/SIGTERM does.
func TestCancelledRunLeavesNothingBehind(t *testing.T) {
	for _, name := range []string{"ingest", "restart"} {
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
			defer cancel()
			o := options{workload: name, seed: 3, seconds: 60, root: root}
			_, err := run(ctx, o, small(name), io.Discard)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("run ended with %v, want the deadline", err)
			}
			settle(t, base)
			if left := leftovers(t, root); len(left) > 0 {
				t.Fatalf("files left behind: %v", left)
			}
		})
	}
}
