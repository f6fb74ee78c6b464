package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-origin", "2012-05", "-span", "2",
		"-policy", "reject", "-queue", "7", "-state", "/tmp/x.smn",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "127.0.0.1:0" || cfg.serve.QueueBatches != 7 || cfg.serve.StatePath != "/tmp/x.smn" {
		t.Errorf("parsed config: %+v", cfg)
	}
	if got := cfg.serve.Policy.String(); got != "reject" {
		t.Errorf("policy = %s", got)
	}
	if o := cfg.serve.Monitor.Grid.Origin(); o.Year() != 2012 || o.Month() != time.May {
		t.Errorf("origin = %v", o)
	}

	for _, bad := range [][]string{
		{"-origin", "May 2012"},
		{"-policy", "drop"},
		{"-span", "0"},
		{"-unknown"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%v) accepted bad input", bad)
		}
	}
}

// bootDaemon runs serveUntilSignal with -state on a loopback listener and
// returns the listener's address and a channel that receives
// serveUntilSignal's result.
func bootDaemon(t *testing.T, state string, stderr *os.File) (string, chan error) {
	t.Helper()
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-origin", "2012-05", "-state", state})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serveUntilSignal(cfg, ln, stderr) }()
	return ln.Addr().String(), done
}

// TestDaemonSignalShutdown boots the real daemon on a loopback listener,
// feeds it over HTTP, delivers SIGTERM, and checks the shutdown path:
// serveUntilSignal returns cleanly and the state file holds the drained
// monitor, so a second boot resumes at the advanced watermark.
func TestDaemonSignalShutdown(t *testing.T) {
	state := filepath.Join(t.TempDir(), "mon.smn")
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()

	boot := func() (string, chan error) {
		addr, done := bootDaemon(t, state, stderr)
		return "http://" + addr, done
	}

	base, done := boot()
	// Months 0 and 2: the month-2 receipt closes window 0.
	body, _ := json.Marshal(map[string]any{"receipts": []map[string]any{
		{"customer": 1, "time": "2012-05-03T09:00:00Z", "items": []int{1, 2}},
		{"customer": 1, "time": "2012-07-04T09:00:00Z", "items": []int{1, 2}},
	}})
	resp, err := http.Post(base+"/v1/receipts", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: status %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntilSignal: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("state not persisted: %v", err)
	}

	// Reboot from the state file: the watermark must have survived.
	base, done = boot()
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status    string `json:"status"`
		Customers int    `json:"customers"`
		Watermark int    `json:"watermark"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Customers != 1 || h.Watermark != 1 {
		t.Errorf("resumed healthz: %+v, want ok/1/1", h)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second shutdown: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("second daemon did not shut down")
	}

	log, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(log), "drained and persisted"); n != 2 {
		t.Errorf("shutdown log lines = %d, want 2:\n%s", n, log)
	}
}

func TestRunBadAddr(t *testing.T) {
	if err := run([]string{"-addr", "256.0.0.1:http"}, os.NewFile(0, os.DevNull)); err == nil {
		t.Error("run accepted an unbindable address")
	}
	if err := run([]string{"-origin", "nope"}, os.NewFile(0, os.DevNull)); err == nil {
		t.Error("run accepted a bad origin")
	}
}

// TestRunRejectsBadBeta: -beta must lie in [0,1). NaN is the value a
// comparison-based range check lets through; the daemon must refuse it
// like any other out-of-range β instead of serving with every defined
// window past warm-up alerting.
func TestRunRejectsBadBeta(t *testing.T) {
	for _, beta := range []string{"NaN", "1.5", "-0.1"} {
		if err := run([]string{"-addr", "127.0.0.1:0", "-beta", beta}, os.NewFile(0, os.DevNull)); err == nil {
			t.Errorf("run accepted -beta %s", beta)
		}
	}
}
