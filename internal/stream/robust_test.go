package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	iofs "io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/faultfs"
	"github.com/gautrais/stability/internal/retail"
)

// snapshotBytes builds a small but structurally complete SMN1 snapshot:
// several customers, scored history, and a non-empty pending basket.
func snapshotBytes(t *testing.T) []byte {
	t.Helper()
	g := testGrid(t)
	m, err := New(testConfig(t, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []retail.CustomerID{3, 11, 40000} {
		for w := 0; w <= 2; w++ {
			if _, err := m.Ingest(c, at(g, w, int(c%20)), retail.NewBasket([]retail.ItemID{1, retail.ItemID(c%7 + 2)})); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotTruncationAlwaysErrors cuts a valid SMN1 snapshot at every
// byte boundary: every prefix must fail to restore with an error — a torn
// state file can never produce a silently partial monitor.
func TestSnapshotTruncationAlwaysErrors(t *testing.T) {
	snap := snapshotBytes(t)
	cfg := testConfig(t, 0.7)
	if _, err := ReadMonitorSnapshot(bytes.NewReader(snap), cfg); err != nil {
		t.Fatalf("intact snapshot failed to restore: %v", err)
	}
	for n := 0; n < len(snap); n++ {
		if _, err := ReadMonitorSnapshot(bytes.NewReader(snap[:n]), cfg); err == nil {
			t.Fatalf("truncation at byte %d of %d restored without error", n, len(snap))
		}
	}
}

// TestSnapshotCorruptMagicRejected flips each magic byte in turn.
func TestSnapshotCorruptMagicRejected(t *testing.T) {
	snap := snapshotBytes(t)
	cfg := testConfig(t, 0.7)
	for i := 0; i < 4; i++ {
		bad := append([]byte(nil), snap...)
		bad[i] ^= 0x5a
		if _, err := ReadMonitorSnapshot(bytes.NewReader(bad), cfg); err == nil {
			t.Fatalf("corrupt magic byte %d accepted", i)
		}
	}
}

// TestSnapshotPreRetentionCompat hand-encodes a customer record the way
// pre-retention writers did — flags bit2 clear, no lastActiveK field — and
// checks it restores with the conservative default lastActiveK = openK.
func TestSnapshotPreRetentionCompat(t *testing.T) {
	cfg := testConfig(t, 0.7)
	var buf bytes.Buffer
	sw, err := newSnapshotWriter(&buf, cfg.Grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	const openK, lastScoredK = 5, 4
	if err := sw.putU(7); err != nil { // customer id
		t.Fatal(err)
	}
	if err := sw.putI(openK); err != nil {
		t.Fatal(err)
	}
	if err := sw.putI(lastScoredK); err != nil {
		t.Fatal(err)
	}
	if err := sw.bw.WriteByte(3); err != nil { // lastDefined|scored, no bit2
		t.Fatal(err)
	}
	var f8 [8]byte
	binary.LittleEndian.PutUint64(f8[:], math.Float64bits(0.25))
	if _, err := sw.bw.Write(f8[:]); err != nil {
		t.Fatal(err)
	}
	if err := sw.putU(0); err != nil { // empty pending
		t.Fatal(err)
	}
	if err := sw.flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTracker(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	m, err := ReadMonitorSnapshot(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatalf("pre-retention snapshot failed to restore: %v", err)
	}
	st, ok := m.states[7]
	if !ok {
		t.Fatal("customer 7 missing after restore")
	}
	if st.lastActiveK != openK {
		t.Fatalf("restored lastActiveK = %d, want openK = %d", st.lastActiveK, openK)
	}
	if st.lastStability != 0.25 || !st.lastDefined || !st.scored || st.lastScoredK != lastScoredK {
		t.Fatalf("restored state mangled: %+v", st)
	}
}

// TestIngestorCrashMidStateSave drives the kill-mid-state-save crash
// points: with a fault injected into the final save, Close must fail
// loudly, the previous state file must survive byte-identical, and a clean
// recovery run over the lost tail must converge to the uninterrupted run's
// exact bytes.
func TestIngestorCrashMidStateSave(t *testing.T) {
	feed := randomFeed(t, 77, 10, 500)
	cut := len(feed) / 2
	wantAlerts, wantSnap := replayIngestReference(t, ingestorConfig(t, 1).Monitor, feed)

	cases := []struct {
		name        string
		fp          faultfs.Failpoint
		tmpSurvives bool
	}{
		{"crash-mid-write", faultfs.Failpoint{Op: faultfs.OpWrite, PathSuffix: ".tmp", Crash: true, CrashAtByte: 64}, false},
		{"write-error", faultfs.Failpoint{Op: faultfs.OpWrite, PathSuffix: ".tmp"}, false},
		{"sync-error", faultfs.Failpoint{Op: faultfs.OpSync, PathSuffix: ".tmp"}, false},
		{"create-error", faultfs.Failpoint{Op: faultfs.OpCreate, PathSuffix: ".tmp"}, false},
		{"rename-error", faultfs.Failpoint{Op: faultfs.OpRename, PathSuffix: ".tmp"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			state := filepath.Join(t.TempDir(), "mon.smn")

			// Leg 1: clean run over the first half; Close persists v1.
			cfg := ingestorConfig(t, 4)
			cfg.StatePath = state
			ing, err := NewIngestor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			enqueueAll(t, ing, feed[:cut], 7)
			if err := ing.Close(); err != nil {
				t.Fatal(err)
			}
			alerts := drainLog(t, ing)
			v1, err := os.ReadFile(state)
			if err != nil {
				t.Fatal(err)
			}

			// Leg 2: the process "dies" during the shutdown save.
			in := faultfs.NewInjector(faultfs.OS{})
			in.Arm(tc.fp)
			cfg2 := ingestorConfig(t, 4)
			cfg2.StatePath = state
			cfg2.FS = in
			ing2, err := NewIngestor(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			enqueueAll(t, ing2, feed[cut:], 7)
			if err := ing2.Close(); err == nil {
				t.Fatal("Close with an injected save fault reported success (silent partial state)")
			}
			if in.Fired() == 0 {
				t.Fatal("failpoint never fired")
			}
			if got := ing2.Metrics().SaveErrors; got == 0 {
				t.Fatal("save error not counted")
			}
			got, err := os.ReadFile(state)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v1, got) {
				t.Fatal("crashed save corrupted the previous state file")
			}
			if !tc.tmpSurvives {
				if _, err := os.Stat(state + ".tmp"); !errors.Is(err, iofs.ErrNotExist) {
					t.Fatalf("stray temp file after failed save: stat err = %v", err)
				}
			}

			// Leg 3: recover from v1 and replay the lost tail; the final
			// bytes must match the uninterrupted run exactly.
			cfg3 := ingestorConfig(t, 4)
			cfg3.StatePath = state
			ing3, err := NewIngestor(cfg3)
			if err != nil {
				t.Fatal(err)
			}
			enqueueAll(t, ing3, feed[cut:], 7)
			if err := ing3.Close(); err != nil {
				t.Fatal(err)
			}
			alerts = append(alerts, drainLog(t, ing3)...)
			final, err := os.ReadFile(state)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantSnap, final) {
				t.Fatal("recovered state differs from the uninterrupted run")
			}
			if !alertsEqual(wantAlerts, alerts) {
				t.Fatal("recovered alert stream differs from the uninterrupted run")
			}
		})
	}
}

// TestIngestorRestoreFaultFailsLoudly: an injected error opening the state
// file must abort startup, never silently start from an empty monitor.
func TestIngestorRestoreFaultFailsLoudly(t *testing.T) {
	state := filepath.Join(t.TempDir(), "mon.smn")
	cfg := ingestorConfig(t, 2)
	cfg.StatePath = state
	ing, err := NewIngestor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enqueueAll(t, ing, randomFeed(t, 5, 4, 50), 7)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	in := faultfs.NewInjector(faultfs.OS{})
	in.Arm(faultfs.Failpoint{Op: faultfs.OpOpen, PathSuffix: "mon.smn"})
	cfg2 := ingestorConfig(t, 2)
	cfg2.StatePath = state
	cfg2.FS = in
	if _, err := NewIngestor(cfg2); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("NewIngestor with failing restore: err = %v, want ErrInjected", err)
	}
}
