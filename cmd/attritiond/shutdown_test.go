package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonShutdownDrainsInFlight delivers SIGTERM while a POST's body is
// still on its way and an SSE client is connected. Shutdown must end the
// SSE stream at once, let the POST finish and answer 200, and only then
// drain and persist, so the customer that POST carried is in the restored
// state.
func TestDaemonShutdownDrainsInFlight(t *testing.T) {
	state := filepath.Join(t.TempDir(), "mon.smn")
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	receipt := func(customer int) []byte {
		body, err := json.Marshal(map[string]any{"receipts": []map[string]any{
			{"customer": customer, "time": "2012-05-03T09:00:00Z", "items": []int{1, 2}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	waitDone := func(done chan error, what string) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: daemon still running 10s after SIGTERM", what)
		}
	}

	addr, done := bootDaemon(t, state, stderr)
	base := "http://" + addr
	resp, err := http.Post(base+"/v1/receipts", "application/json", bytes.NewReader(receipt(1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: status %d", resp.StatusCode)
	}

	sse, err := http.Get(base + "/v1/alerts?stream=sse")
	if err != nil {
		t.Fatal(err)
	}
	sseDone := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, sse.Body)
		sse.Body.Close()
		close(sseDone)
	}()

	// The in-flight POST: with Expect: 100-continue the server answers
	// 100 Continue once the handler starts reading the body, so the
	// handler is provably running when the signal arrives.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := receipt(2)
	fmt.Fprintf(conn, "POST /v1/receipts HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\nExpect: 100-continue\r\n\r\n", addr, len(body))
	br := bufio.NewReader(conn)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "HTTP/1.1 100 ") {
		t.Fatalf("want 100 Continue, got %q (%v)", line, err)
	}
	if line, err := br.ReadString('\n'); err != nil || line != "\r\n" {
		t.Fatalf("100 Continue ends with %q (%v)", line, err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sseDone:
	case <-time.After(10 * time.Second):
		t.Fatal("an open SSE stream held up shutdown")
	}
	select {
	case err := <-done:
		t.Fatalf("serveUntilSignal returned (%v) while a POST was in flight", err)
	default:
	}
	if _, err := conn.Write(body); err != nil {
		t.Fatal(err)
	}
	resp, err = http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || string(answer) != "{\"accepted\":1}\n" {
		t.Fatalf("in-flight POST: status %d %s, want 200 {\"accepted\":1}", resp.StatusCode, answer)
	}
	waitDone(done, "shutdown")

	addr, done = bootDaemon(t, state, stderr)
	var h struct {
		Customers int `json:"customers"`
	}
	resp, err = http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.Customers != 2 {
		t.Errorf("restored state tracks %d customers, want 2 (the in-flight POST's customer was lost)", h.Customers)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitDone(done, "second shutdown")
}
