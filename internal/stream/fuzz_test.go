package stream

import (
	"bytes"
	"testing"
	"time"

	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/window"
)

// FuzzReadMonitorSnapshot feeds the SMN1 reader arbitrary bytes. It must
// return an error, never panic or run out of memory, and a snapshot it
// accepts must be stable under a round trip: written with WriteSnapshot,
// read back and written again, it gives the same bytes both times.
func FuzzReadMonitorSnapshot(f *testing.F) {
	g, err := window.NewGrid(time.Date(2012, time.May, 1, 0, 0, 0, 0, time.UTC), window.Span{Months: 2})
	if err != nil {
		f.Fatal(err)
	}
	cfg := Config{Grid: g, Model: core.Options{Alpha: 2, MaxBlame: 3}, Beta: 0.7, TopJ: 3, WarmupWindows: 2}
	snapshot := func(m *Monitor) []byte {
		var buf bytes.Buffer
		if err := m.WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	m, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snapshot(m))
	// Scored customers, an open window with pending baskets, and a
	// customer that is never scored.
	for day := 0; day < 150; day += 9 {
		id := retail.CustomerID(day%4 + 1)
		basket := retail.NewBasket([]retail.ItemID{retail.ItemID(day%5 + 1), 7, retail.ItemID(day%3 + 10)})
		if _, err := m.Ingest(id, g.Origin().AddDate(0, 0, day), basket); err != nil {
			f.Fatal(err)
		}
	}
	m.CloseThrough(1)
	if _, err := m.Ingest(1<<40, g.Origin().AddDate(0, 0, 160), retail.Basket{2}); err != nil {
		f.Fatal(err)
	}
	valid := snapshot(m)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:17])
	f.Add([]byte("SMN1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMonitorSnapshot(bytes.NewReader(data), cfg)
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := m.WriteSnapshot(&first); err != nil {
			t.Fatalf("write an accepted snapshot: %v", err)
		}
		again, err := ReadMonitorSnapshot(bytes.NewReader(first.Bytes()), cfg)
		if err != nil {
			t.Fatalf("read back a written snapshot: %v", err)
		}
		if err := again.WriteSnapshot(&second); err != nil {
			t.Fatalf("write it again: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the snapshot:\nfirst  %x\nsecond %x", first.Bytes(), second.Bytes())
		}
	})
}
