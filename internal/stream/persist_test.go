package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/window"
)

// TestMonitorSnapshotRoundTrip: a restored monitor must behave exactly
// like the original on any continuation of the feed — alerts, stability
// values and blame identical.
func TestMonitorSnapshotRoundTrip(t *testing.T) {
	g, err := window.NewGrid(time.Date(2012, time.May, 1, 0, 0, 0, 0, time.UTC), window.Span{Months: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Grid: g, Model: core.Options{Alpha: 2, MaxBlame: 3}, Beta: 0.7, TopJ: 3, WarmupWindows: 2}

	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		type ev struct {
			id    retail.CustomerID
			t     time.Time
			items retail.Basket
		}
		feed := make([]ev, 0, 80)
		day := 0
		for i := 0; i < 80; i++ {
			day += r.Intn(10)
			items := make([]retail.ItemID, r.Intn(5))
			for j := range items {
				items[j] = retail.ItemID(r.Intn(8) + 1)
			}
			feed = append(feed, ev{
				id:    retail.CustomerID(r.Intn(3) + 1),
				t:     g.Origin().AddDate(0, 0, day).Add(8 * time.Hour),
				items: retail.NewBasket(items),
			})
		}
		split := len(feed) / 2

		// Original: run the whole feed.
		orig, err := New(cfg)
		if err != nil {
			return false
		}
		var origAlerts []Alert
		for _, e := range feed {
			a, err := orig.Ingest(e.id, e.t, e.items)
			if err != nil {
				return false
			}
			origAlerts = append(origAlerts, a...)
		}
		origAlerts = append(origAlerts, orig.CloseThrough(20)...)

		// Snapshotted: run half, persist, restore, run the rest.
		first, err := New(cfg)
		if err != nil {
			return false
		}
		var snapAlerts []Alert
		for _, e := range feed[:split] {
			a, err := first.Ingest(e.id, e.t, e.items)
			if err != nil {
				return false
			}
			snapAlerts = append(snapAlerts, a...)
		}
		var buf bytes.Buffer
		if err := first.WriteSnapshot(&buf); err != nil {
			return false
		}
		restored, err := ReadMonitorSnapshot(&buf, cfg)
		if err != nil {
			return false
		}
		for _, e := range feed[split:] {
			a, err := restored.Ingest(e.id, e.t, e.items)
			if err != nil {
				return false
			}
			snapAlerts = append(snapAlerts, a...)
		}
		snapAlerts = append(snapAlerts, restored.CloseThrough(20)...)

		if len(origAlerts) != len(snapAlerts) {
			return false
		}
		for i := range origAlerts {
			a, b := origAlerts[i], snapAlerts[i]
			if a.Customer != b.Customer || a.GridIndex != b.GridIndex {
				return false
			}
			if math.Abs(a.Stability-b.Stability) > 1e-15 {
				return false
			}
			if len(a.Blame) != len(b.Blame) {
				return false
			}
			for j := range a.Blame {
				if a.Blame[j].Item != b.Blame[j].Item {
					return false
				}
			}
		}
		// Per-customer last stabilities agree too.
		for id := retail.CustomerID(1); id <= 3; id++ {
			va, ka, oka := orig.Stability(id)
			vb, kb, okb := restored.Stability(id)
			if oka != okb || ka != kb || math.Abs(va-vb) > 1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReadMonitorSnapshotValidation(t *testing.T) {
	g, _ := window.NewGrid(time.Date(2012, time.May, 1, 0, 0, 0, 0, time.UTC), window.Span{Months: 2})
	cfg := Config{Grid: g, Model: core.Options{Alpha: 2}, Beta: 0.5}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest(1, g.Origin().AddDate(0, 0, 3), retail.Basket{1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	// Wrong grid span.
	g3, _ := window.NewGrid(g.Origin(), window.Span{Months: 3})
	bad := cfg
	bad.Grid = g3
	if _, err := ReadMonitorSnapshot(bytes.NewReader(snap), bad); err == nil {
		t.Fatal("mismatched grid accepted")
	}
	// Wrong model options.
	bad = cfg
	bad.Model = core.Options{Alpha: 3}
	if _, err := ReadMonitorSnapshot(bytes.NewReader(snap), bad); err == nil {
		t.Fatal("mismatched model options accepted")
	}
	// Garbage and truncation.
	if _, err := ReadMonitorSnapshot(bytes.NewReader([]byte("XXXXYYYY")), cfg); err == nil {
		t.Fatal("bad magic accepted")
	}
	for cut := 0; cut < len(snap); cut += 3 {
		if _, err := ReadMonitorSnapshot(bytes.NewReader(snap[:cut]), cfg); err == nil {
			t.Fatalf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
	// Intact snapshot restores.
	restored, err := ReadMonitorSnapshot(bytes.NewReader(snap), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Customers() != 1 {
		t.Fatalf("restored customers = %d", restored.Customers())
	}
}

// TestReadMonitorSnapshotHugeCount reads a bare SMN1 header that claims
// 4,194,304 customers and holds none. The read must fail on the missing
// states without first allocating for the claimed count (about 36 bytes
// per claimed customer, 144 MiB here).
func TestReadMonitorSnapshotHugeCount(t *testing.T) {
	g, _ := window.NewGrid(time.Date(2012, time.May, 1, 0, 0, 0, 0, time.UTC), window.Span{Months: 2})
	cfg := Config{Grid: g, Model: core.Options{Alpha: 2}, Beta: 0.5}
	header := append([]byte{}, monitorMagic[:]...)
	header = binary.LittleEndian.AppendUint64(header, uint64(g.Origin().Unix()))
	header = binary.AppendUvarint(header, 2)
	header = binary.AppendUvarint(header, 1<<22)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadMonitorSnapshot(bytes.NewReader(header), cfg); err == nil {
		t.Fatal("header without states accepted")
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Fatalf("reading a %d-byte header allocated %d MiB", len(header), alloc>>20)
	}
}

// TestSnapshotWatermarkMatchesRestore: the follow-mode restart reads only a
// state file's watermark. On random snapshots and on corrupt, truncated and
// mismatched ones it must return what a full restore's Watermark returns,
// and fail with the full restore's error.
func TestSnapshotWatermarkMatchesRestore(t *testing.T) {
	cfg := testConfig(t, 0.7)
	check := func(name string, data []byte, cfg Config) error {
		t.Helper()
		k, ok, err := readSnapshotWatermark(bytes.NewReader(data), cfg)
		s, rerr := ReadShardedMonitorSnapshot(bytes.NewReader(data), cfg, 3)
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("%s: watermark read error %v, restore error %v", name, err, rerr)
		}
		if rerr != nil {
			return rerr
		}
		wk, wok := s.Watermark()
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if k != wk || ok != wok {
			t.Fatalf("%s: watermark read gives (%d, %v), restore gives (%d, %v)", name, k, ok, wk, wok)
		}
		return nil
	}
	snapshot := func(m *Monitor) []byte {
		var buf bytes.Buffer
		if err := m.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	empty, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("empty", snapshot(empty), cfg)
	for seed := int64(1); seed <= 8; seed++ {
		// Close through a random earlier window now and then, so customers
		// hold different open windows when the snapshot is taken.
		r := rand.New(rand.NewSource(seed))
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range randomFeed(t, seed, 4+int(seed), 150) {
			k := cfg.Grid.Index(ev.t)
			if r.Intn(20) == 0 {
				m.CloseThrough(k - 1 - r.Intn(2))
			}
			if _, err := m.Ingest(ev.id, ev.t, ev.items); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("seed %d", seed), snapshot(m), cfg)
	}

	snap := snapshotBytes(t)
	for n := 0; n < len(snap); n++ {
		if check(fmt.Sprintf("cut at %d", n), snap[:n], cfg) == nil {
			t.Fatalf("cut at %d restored", n)
		}
		bad := append([]byte(nil), snap...)
		bad[n] ^= 0x5a
		check(fmt.Sprintf("byte %d flipped", n), bad, cfg)
	}
	check("bad magic", []byte("XXXXYYYY"), cfg)
	g3, err := window.NewGrid(cfg.Grid.Origin(), window.Span{Months: 3})
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Grid = g3
	if check("other grid", snap, other) == nil {
		t.Fatal("mismatched grid restored")
	}
	other = cfg
	other.Model = core.Options{Alpha: 3}
	if check("other model", snap, other) == nil {
		t.Fatal("mismatched model options restored")
	}

	// Ids written out of order: the writer never does this, and a repeated
	// id would silently replace an earlier state.
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []retail.CustomerID{4, 9} {
		if _, err := m.Ingest(id, at(cfg.Grid, 0, 1), retail.Basket{1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ids := range [][]retail.CustomerID{{9, 4}, {4, 4}} {
		var buf bytes.Buffer
		sw, err := newSnapshotWriter(&buf, cfg.Grid, len(ids))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if err := sw.writeState(id, m.states[id], cfg.Model); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.flush(); err != nil {
			t.Fatal(err)
		}
		if check(fmt.Sprintf("ids %v", ids), buf.Bytes(), cfg) == nil {
			t.Fatalf("snapshot with ids %v restored", ids)
		}
	}
}

// snapshotLastK is the last window snapshotPopulation closes: the feed's
// last window, 12, stays open, so pending baskets ride along.
const snapshotLastK = 11

// snapshotPopulation replays an attrition feed of the given customers into
// a Monitor, closing through the previous window at every window advance
// and at the end through snapshotLastK.
func snapshotPopulation(t *testing.T, customers int) (Config, []feedEvent, *Monitor) {
	t.Helper()
	cfg := testConfig(t, 0.7)
	cfg.Model.MaxBlame = 3
	feed, _ := attritionFeed(t, 26, customers, snapshotLastK+1, 3)
	_, m := replaySingle(t, cfg, feed, snapshotLastK)
	return cfg, feed, m
}

// failingWriter accepts every Write but the fail-th (1-based), which
// returns err, and counts the calls.
type failingWriter struct {
	fail, calls int
	err         error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls == w.fail {
		return 0, w.err
	}
	return len(p), nil
}

// TestWriteSnapshotMatchesReference: the append encoder writes the
// reference writer's bytes (persist_ref_test.go) for a Monitor and for a
// ShardedMonitor at shards {1, 2, 4, 8}, both while the shards run and
// after Close, on a population whose SMN1 spans several chunks. A writer
// that fails on its k-th Write, in the first chunk or a middle one, gets
// that error back and sees no further Write.
func TestWriteSnapshotMatchesReference(t *testing.T) {
	cfg, feed, m := snapshotPopulation(t, 3000)
	var want bytes.Buffer
	if err := writeStatesRef(&want, cfg, []map[retail.CustomerID]*custState{m.states}); err != nil {
		t.Fatal(err)
	}
	if want.Len() < 4*snapshotChunk {
		t.Fatalf("snapshot is %d bytes, want several %d-byte chunks", want.Len(), snapshotChunk)
	}
	check := func(name string, write func(io.Writer) error) {
		t.Helper()
		var got bytes.Buffer
		if err := write(&got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: %d bytes differ from the reference writer's %d", name, got.Len(), want.Len())
		}
		count := &failingWriter{}
		if err := write(count); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, k := range []int{1, count.calls / 2} {
			fw := &failingWriter{fail: k, err: fmt.Errorf("write %d refused", k)}
			if err := write(fw); !errors.Is(err, fw.err) {
				t.Fatalf("%s: write %d of %d failed, WriteSnapshot returned %v", name, k, count.calls, err)
			}
			if fw.calls != k {
				t.Fatalf("%s: write %d of %d failed, then %d more writes", name, k, count.calls, fw.calls-k)
			}
		}
	}
	check("monitor", m.WriteSnapshot)
	for _, shards := range []int{1, 2, 4, 8} {
		_, s := replaySharded(t, cfg, shards, feed, snapshotLastK)
		check(fmt.Sprintf("shards-%d", shards), s.WriteSnapshot)
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("shards-%d closed", shards), s.WriteSnapshot)
	}
}
