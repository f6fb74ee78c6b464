package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/gautrais/stability"
)

// TestCmdCompact pins the compact subcommand: a snapshot grown by -extend
// (a multi-segment chain) compacts to exactly the bytes of a from-scratch
// snapshot of the same receipts, and -evict-before drops the old prefix.
func TestCmdCompact(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "r.stb")
	common := []string{"-customers", "30", "-seed", "7"}
	captureStdout(t, func() error {
		return cmdGen(append([]string{"-out", data, "-months", "12"}, common...))
	})
	captureStdout(t, func() error {
		return cmdGen(append([]string{"-out", data, "-months", "12", "-extend", "4"}, common...))
	})
	f, err := os.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	full, err := stability.ReadSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() error { return cmdCompact([]string{"-data", data}) })
	if !strings.Contains(out, "2 segments -> 1") {
		t.Fatalf("unexpected compact output: %s", out)
	}
	var want bytes.Buffer
	if err := stability.WriteSnapshot(&want, full); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got) {
		t.Fatal("compacted file differs from a from-scratch snapshot")
	}

	// Evict everything before a mid-stream date; compare against the
	// library-level eviction of the same store.
	cut := time.Date(2013, time.January, 1, 0, 0, 0, 0, time.UTC)
	captureStdout(t, func() error {
		return cmdCompact([]string{"-data", data, "-evict-before", "2013-01-01"})
	})
	want.Reset()
	if err := stability.WriteSnapshot(&want, full.EvictBefore(cut)); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got) {
		t.Fatal("evicting compaction differs from EvictBefore + WriteSnapshot")
	}

	if err := cmdCompact([]string{"-data", data, "-evict-before", "eleventy"}); err == nil {
		t.Fatal("bad -evict-before date accepted")
	}
	if err := cmdCompact([]string{}); err == nil {
		t.Fatal("missing -data accepted")
	}
}

// TestCmdMonitorFollow drives monitor -follow end to end: a follow session
// that watches the snapshot grow (the file is extended mid-session, while
// polls race the append) and is stopped by SIGTERM must print exactly the
// alerts of a one-shot -state replay of the final file, and persist the
// identical state bytes.
func TestCmdMonitorFollow(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "r.stb")
	common := []string{"-customers", "40", "-seed", "11"}
	captureStdout(t, func() error {
		return cmdGen(append([]string{"-out", data, "-months", "24"}, common...))
	})

	followState := filepath.Join(dir, "follow.smn")
	followOut := captureStdout(t, func() error {
		// The dataset is extended in place while the follower polls, then
		// the session is signalled to stop. Generous margins: dozens of
		// 10ms polls fit between the grow and the signal.
		grow := time.AfterFunc(300*time.Millisecond, func() {
			err := cmdGen(append([]string{"-out", data, "-months", "24", "-extend", "4"}, common...))
			if err != nil {
				t.Error(err)
			}
		})
		defer grow.Stop()
		stop := time.AfterFunc(1200*time.Millisecond, func() {
			_ = syscall.Kill(os.Getpid(), syscall.SIGTERM)
		})
		defer stop.Stop()
		return cmdMonitor([]string{
			"-data", data, "-follow", "-poll", "10ms",
			"-state", followState, "-beta", "0.6", "-shards", "3", "-max-show", "100000",
		})
	})
	if !strings.Contains(followOut, "state saved to") {
		t.Fatalf("follow session did not persist state:\n%s", followOut)
	}

	oneState := filepath.Join(dir, "oneshot.smn")
	oneOut := captureStdout(t, func() error {
		return cmdMonitor([]string{
			"-data", data, "-state", oneState, "-beta", "0.6", "-shards", "3", "-max-show", "100000",
		})
	})

	got, want := alertLines(followOut), alertLines(oneOut)
	if len(want) == 0 {
		t.Fatal("no alerts fired — test dataset too benign to pin anything")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("follow alerts differ from one-shot replay:\nfollow (%d):\n%s\none-shot (%d):\n%s",
			len(got), strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
	}
	a, err := os.ReadFile(followState)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(oneState)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("follow state differs from one-shot replay state")
	}
}

// TestCmdMonitorFollowNoData: a follow session stopped before the file
// ever appears exits cleanly without writing state.
func TestCmdMonitorFollowNoData(t *testing.T) {
	dir := t.TempDir()
	out := captureStdout(t, func() error {
		stop := time.AfterFunc(100*time.Millisecond, func() {
			_ = syscall.Kill(os.Getpid(), syscall.SIGTERM)
		})
		defer stop.Stop()
		return cmdMonitor([]string{
			"-data", filepath.Join(dir, "never.stb"), "-follow", "-poll", "5ms",
			"-state", filepath.Join(dir, "s.smn"),
		})
	})
	if !strings.Contains(out, "stopped before any data arrived") {
		t.Fatalf("unexpected output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "s.smn")); err == nil {
		t.Fatal("state written despite no data")
	}
}

// followFlags are the monitor flags every follow session and its one-shot
// reference share.
var followFlags = []string{"-beta", "0.6", "-shards", "3", "-max-show", "100000"}

// genFollowData writes a 24-month binary dataset (extended by -extend 4 per
// call of the returned grow) and returns its path.
func genFollowData(t *testing.T) (data string, grow func() error) {
	t.Helper()
	data = filepath.Join(t.TempDir(), "r.stb")
	common := []string{"-out", data, "-months", "24", "-customers", "40", "-seed", "11"}
	captureStdout(t, func() error { return cmdGen(common) })
	return data, func() error { return cmdGen(append([]string{"-extend", "4"}, common...)) }
}

// followSession runs monitor -follow on data with followFlags, -state and
// -poll poll until SIGTERM arrives after d, and returns what it printed and
// returned.
func followSession(t *testing.T, data, state, poll string, d time.Duration) (out string, err error) {
	t.Helper()
	out = captureStdout(t, func() error {
		stop := time.AfterFunc(d, func() { _ = syscall.Kill(os.Getpid(), syscall.SIGTERM) })
		defer stop.Stop()
		err = cmdMonitor(append([]string{"-data", data, "-follow", "-poll", poll, "-state", state}, followFlags...))
		return nil
	})
	return out, err
}

// matchOneShot fails unless the follow alert lines and the state file at
// state equal those of a one-shot -state replay of data.
func matchOneShot(t *testing.T, data string, got []string, state string) {
	t.Helper()
	oneState := filepath.Join(t.TempDir(), "oneshot.smn")
	oneOut := captureStdout(t, func() error {
		return cmdMonitor(append([]string{"-data", data, "-state", oneState}, followFlags...))
	})
	want := alertLines(oneOut)
	if len(want) == 0 {
		t.Fatal("no alerts fired — test dataset too benign to pin anything")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("follow alerts differ from one-shot replay:\nfollow (%d):\n%s\none-shot (%d):\n%s",
			len(got), strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
	}
	a, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(oneState)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("follow state differs from one-shot replay state")
	}
}

// TestCmdMonitorFollowResyncAfterCompact compacts the tailed chain under a
// live follow session and then extends it: the session resyncs once and
// still prints exactly the alerts, and persists exactly the state, of a
// one-shot replay of the final file.
func TestCmdMonitorFollowResyncAfterCompact(t *testing.T) {
	data, grow := genFollowData(t)
	if err := grow(); err != nil { // two segments, so compaction rewrites the file
		t.Fatal(err)
	}
	compact := time.AfterFunc(300*time.Millisecond, func() {
		if _, err := stability.CompactSnapshotFile(data, time.Time{}); err != nil {
			t.Error(err)
		}
	})
	defer compact.Stop()
	extend := time.AfterFunc(600*time.Millisecond, func() {
		if err := grow(); err != nil {
			t.Error(err)
		}
	})
	defer extend.Stop()
	state := filepath.Join(t.TempDir(), "follow.smn")
	out, err := followSession(t, data, state, "5ms", 1200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, " 1 resyncs)") {
		t.Fatalf("compaction under the session did not resync exactly once:\n%s", out)
	}
	matchOneShot(t, data, alertLines(out), state)
}

// TestCmdMonitorFollowResume runs two follow sessions on one -state, the
// file growing between them: together they print exactly the alerts, and
// leave exactly the state, of a one-shot replay of the final file.
func TestCmdMonitorFollowResume(t *testing.T) {
	data, grow := genFollowData(t)
	state := filepath.Join(t.TempDir(), "follow.smn")
	var lines []string
	for session := 0; session < 2; session++ {
		if session > 0 {
			if err := grow(); err != nil {
				t.Fatal(err)
			}
		}
		out, err := followSession(t, data, state, "5ms", 500*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, alertLines(out)...)
	}
	matchOneShot(t, data, lines, state)
}

// TestCmdMonitorFollowResumeStoppedAtOnce stops a resumed follow session
// right after it starts, long before its first -poll period ends: -state
// keeps its bytes and the session prints no alert, so a later session
// still adds up to a one-shot replay instead of printing every alert again.
func TestCmdMonitorFollowResumeStoppedAtOnce(t *testing.T) {
	data, grow := genFollowData(t)
	state := filepath.Join(t.TempDir(), "follow.smn")
	out, err := followSession(t, data, state, "5ms", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	lines := alertLines(out)
	saved, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if out, err = followSession(t, data, state, "1h", 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := alertLines(out); len(got) != 0 {
		t.Fatalf("stopped resume printed %d alerts again:\n%s", len(got), out)
	}
	if got, err := os.ReadFile(state); err != nil || !bytes.Equal(got, saved) {
		t.Fatalf("stopped resume changed -state (read error %v)", err)
	}
	if err := grow(); err != nil {
		t.Fatal(err)
	}
	if out, err = followSession(t, data, state, "5ms", 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	matchOneShot(t, data, append(lines, alertLines(out)...), state)
}

// TestCmdMonitorFollowCorruptDegraded tails a valid chain followed by
// garbage: the follower degrades, and the session persists -state for the
// valid receipts and returns an error naming the degraded reason and the
// decode failure behind it.
func TestCmdMonitorFollowCorruptDegraded(t *testing.T) {
	data, _ := genFollowData(t)
	valid := filepath.Join(t.TempDir(), "valid.stb")
	raw, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(valid, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(data, append(raw, "XXXXXXXXXXXXXXXX"...), 0o644); err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(t.TempDir(), "follow.smn")
	// The SIGTERM only bounds a session that never degrades.
	out, err := followSession(t, data, state, "5ms", 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "follower stalled") || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("corrupt chain: err = %v, want the degraded reason and the bad magic cause", err)
	}
	matchOneShot(t, valid, alertLines(out), state)
}
