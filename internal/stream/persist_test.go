package stream

import (
	"bytes"
	"encoding/binary"
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
