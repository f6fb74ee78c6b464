package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestLoadgenSelfServe runs the full pipeline — generate, replay over
// concurrent connections, measure, verify against the sequential replay —
// against an in-process daemon. The horizon is long enough that alerts
// fire, so the alert-stream comparison is not vacuous.
func TestLoadgenSelfServe(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-customers", "40", "-months", "16", "-conns", "3", "-batch", "75",
		"-queries", "60", "-shards", "4",
	}, &out)
	if err != nil {
		t.Fatalf("loadgen failed: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"receipts/sec",
		"ingest latency",
		"query latency",
		"alert stream:",
		"exact match",
		"verification: daemon matches sequential replay",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "alert stream: 0 alerts") {
		t.Error("no alerts fired; the verification run is vacuous")
	}
}

// TestLoadgenSelfServeRetention runs the pipeline with a retention horizon:
// verification must still be exact, and the eviction counters must match
// the sequential replay.
func TestLoadgenSelfServeRetention(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-customers", "40", "-months", "24", "-conns", "3", "-batch", "75",
		"-queries", "60", "-shards", "4", "-retention", "2",
		"-churn", "0.3",
	}, &out)
	if err != nil {
		t.Fatalf("loadgen with retention failed: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "eviction:") || !strings.Contains(s, "verification: daemon matches sequential replay") {
		t.Errorf("output missing eviction verification:\n%s", s)
	}
	if strings.Contains(s, "eviction: 0 customers evicted") {
		t.Error("retention horizon evicted nobody; the eviction verification is vacuous")
	}
}

// TestLoadgenQueryMix runs the pipeline with batch queries interleaved at
// every month barrier: each NDJSON answer must match the shadow sequential
// replay exactly, and the final verification must still pass.
func TestLoadgenQueryMix(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-customers", "40", "-months", "16", "-conns", "3", "-batch", "75",
		"-queries", "60", "-shards", "4", "-query-mix",
	}, &out)
	if err != nil {
		t.Fatalf("loadgen -query-mix failed: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"query-mix:", "batch queries", "exact match",
		"verification: daemon matches sequential replay",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "query-mix: 0 batch queries") || strings.Contains(s, "(0 scored answers)") {
		t.Errorf("query-mix issued no verified scores; the run is vacuous:\n%s", s)
	}
}

// TestLoadgenFollow runs the pipeline in follow mode: the daemon tails
// the feed appended in month order as STB1 segments, run fails unless the
// mid-run compaction made it resync, and verification must still be
// exact.
func TestLoadgenFollow(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-customers", "40", "-months", "16", "-batch", "75",
		"-queries", "60", "-shards", "4", "-follow",
	}, &out)
	if err != nil {
		t.Fatalf("loadgen -follow failed: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"compaction mid-tail:", "1 resyncs",
		"verification: daemon matches sequential replay",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "alert stream: 0 alerts") {
		t.Error("no alerts fired; the verification run is vacuous")
	}
}

// TestBackoffWait pins the deterministic 429 backoff schedule.
func TestBackoffWait(t *testing.T) {
	cases := []struct {
		hint    time.Duration
		attempt int
		want    time.Duration
	}{
		{0, 0, 50 * time.Millisecond},            // no hint: fixed default
		{0, 2, 200 * time.Millisecond},           // default doubles per attempt
		{time.Second, 0, time.Second},            // server hint honoured
		{time.Second, 1, maxRetryWait},           // doubling is capped
		{time.Second, 10, maxRetryWait},          // stays capped
		{10 * time.Second, 0, maxRetryWait},      // oversized hint capped
		{-time.Second, 0, 50 * time.Millisecond}, // nonsense hint: default
	}
	for _, tc := range cases {
		if got := backoffWait(tc.hint, tc.attempt); got != tc.want {
			t.Errorf("backoffWait(%v, %d) = %v, want %v", tc.hint, tc.attempt, got, tc.want)
		}
	}
}

func TestLoadgenFlagValidation(t *testing.T) {
	if _, err := parseFlags([]string{"-conns", "0"}); err == nil {
		t.Error("accepted -conns 0")
	}
	if _, err := parseFlags([]string{"-nope"}); err == nil {
		t.Error("accepted unknown flag")
	}
	if _, err := parseFlags([]string{"-query-mix", "-follow"}); err == nil {
		t.Error("accepted -query-mix with -follow")
	}
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.customers != 400 || o.conns != 4 || !o.verify {
		t.Errorf("defaults: %+v", o)
	}
}

func TestHistogram(t *testing.T) {
	h := &hist{}
	if h.String() != "no samples" {
		t.Errorf("empty hist String = %q", h.String())
	}
	if h.quantile(0.5) != 0 {
		t.Error("empty hist quantile != 0")
	}
	for i := 0; i < 90; i++ {
		h.observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.observe(10 * time.Millisecond)
	}
	if q := h.quantile(0.50); q > time.Millisecond {
		t.Errorf("p50 = %v, want within the 100µs bucket range", q)
	}
	if q := h.quantile(0.99); q < 8*time.Millisecond {
		t.Errorf("p99 = %v, want in the 10ms bucket", q)
	}
	if h.max != 10*time.Millisecond {
		t.Errorf("max = %v", h.max)
	}
	other := &hist{}
	other.observe(20 * time.Millisecond)
	h.merge(other)
	if h.count != 101 || h.max != 20*time.Millisecond {
		t.Errorf("after merge: count=%d max=%v", h.count, h.max)
	}
}
