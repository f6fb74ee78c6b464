package stream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/store"
	"github.com/gautrais/stability/internal/window"
)

// FuzzReadMonitorSnapshot feeds the SMN1 reader arbitrary bytes. It must
// return an error, never panic or run out of memory, and a snapshot it
// accepts must be stable under a round trip: written with WriteSnapshot,
// read back and written again, it gives the same bytes both times, and
// the reference writer (persist_ref_test.go) gives them too.
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
		var first, second, ref bytes.Buffer
		if err := m.WriteSnapshot(&first); err != nil {
			t.Fatalf("write an accepted snapshot: %v", err)
		}
		if err := writeStatesRef(&ref, cfg, []map[retail.CustomerID]*custState{m.states}); err != nil {
			t.Fatalf("reference write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), ref.Bytes()) {
			t.Fatalf("append encoder wrote %x, reference writer %x", first.Bytes(), ref.Bytes())
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

// FuzzFollowMonthOrder is the differential check of follow catch-up's
// order. It cuts a random store into random polls and feeds every poll to
// two ingestors at shards {1, 2, 4, 8} and retention {0, 1, 2}:
// processFollowBatch visits it in month order, and the reference steps
// through a stable time sort of the poll's flattening under the same
// stale rule. After every poll the two alert logs, every customer's
// stability, the SMN1 bytes and the counters must be equal.
func FuzzFollowMonthOrder(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(2), uint8(40))
	f.Add(int64(3), uint8(5), uint8(255))
	f.Add(int64(4), uint8(3), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, polls, late uint8) {
		checkFollowMonthOrder(t, seed, int(polls%6)+1, late)
	})
}

// TestFollowMonthOrderNotVacuous: a fuzz seed's polls raise alerts and
// carry receipts both orders skip.
func TestFollowMonthOrderNotVacuous(t *testing.T) {
	if alerts, skipped := checkFollowMonthOrder(t, 2, 3, 40); alerts == 0 || skipped == 0 {
		t.Fatalf("%d alerts and %d skipped receipts per ingestor; the comparison proves little", alerts, skipped)
	}
}

// followPolls generates receipts for a few customers over about seven
// windows, from a week before the grid origin on, at three hours a day in
// three zones, so instants tie within and across customers. It puts them
// in time order, cuts them into n polls, and moves each receipt one poll
// later at a time, each time with probability late/256; a delayed receipt
// whose window closed meanwhile is skipped.
func followPolls(t *testing.T, g window.Grid, seed int64, n int, late uint8) (polls []*store.Store, ids []retail.CustomerID) {
	r := rand.New(rand.NewSource(seed))
	zones := []*time.Location{time.UTC, time.FixedZone("IST", 5*3600+1800), time.FixedZone("PST", -8*3600)}
	customers := 1 + r.Intn(10)
	for c := 0; c < customers; c++ {
		ids = append(ids, retail.CustomerID(c*7919+1))
	}
	events := make([]feedEvent, r.Intn(400))
	for k := range events {
		items := make([]retail.ItemID, r.Intn(5))
		for j := range items {
			items[j] = retail.ItemID(r.Intn(8) + 1)
		}
		events[k] = feedEvent{
			id:    ids[r.Intn(customers)],
			t:     g.Origin().AddDate(0, 0, r.Intn(430)-7).Add(time.Duration(r.Intn(3)) * time.Hour).In(zones[r.Intn(3)]),
			items: retail.NewBasket(items),
		}
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].t.Before(events[b].t) })
	builders := make([]*store.Builder, n)
	for p := range builders {
		builders[p] = store.NewBuilder()
	}
	for k, ev := range events {
		p := k * n / len(events)
		for p < n-1 && uint8(r.Intn(256)) < late {
			p++
		}
		if err := builders[p].Add(ev.id, ev.t, ev.items, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range builders {
		polls = append(polls, b.Build())
	}
	return polls, ids
}

// stepInTimeOrder is processFollowBatch's reference: the same stale rule
// and step, over the poll flattened customer by customer and stably
// sorted by time, each receipt stepped with its own month.
func stepInTimeOrder(i *Ingestor, poll *store.Store) {
	var flat []ReceiptEvent
	poll.Each(func(h retail.History) bool {
		for _, r := range h.Receipts {
			flat = append(flat, ReceiptEvent{Customer: h.Customer, Time: r.Time, Items: r.Items})
		}
		return true
	})
	sort.SliceStable(flat, func(a, b int) bool { return flat[a].Time.Before(flat[b].Time) })
	grid := i.cfg.Monitor.Grid
	start, _ := grid.Bounds(i.lastClosedK + 1)
	minMonth := grid.MonthIndex(start)
	for _, ev := range flat {
		m := grid.MonthIndex(ev.Time)
		if m < minMonth {
			i.followSkips.Add(1)
			continue
		}
		if !i.step(ev, m) {
			return
		}
	}
}

// checkFollowMonthOrder runs one generated store both ways at every shard
// count and retention and returns the alerts and skipped receipts of the
// last pair.
func checkFollowMonthOrder(t *testing.T, seed int64, n int, late uint8) (alerts int, skipped uint64) {
	g := testGrid(t)
	polls, ids := followPolls(t, g, seed, n, late)
	for _, shards := range []int{1, 2, 4, 8} {
		for retention := 0; retention <= 2; retention++ {
			cfg := IngestorConfig{
				Monitor: Config{Grid: g, Model: core.Options{Alpha: 2}, Beta: 0.7, TopJ: 3, RetentionWindows: retention},
				Shards:  shards,
			}
			byMonth, byTime := parkedIngestor(t, cfg), parkedIngestor(t, cfg)
			for p, poll := range polls {
				byMonth.processFollowBatch(poll)
				stepInTimeOrder(byTime, poll)
				byMonth.flushBarrier()
				byTime.flushBarrier()
				if diff := followOrderDiff(t, byMonth, byTime, ids); diff != "" {
					t.Fatalf("seed %d shards %d retention %d, poll %d of %d: month order differs from time order: %s",
						seed, shards, retention, p, n, diff)
				}
			}
			alerts, skipped = len(drainLog(t, byMonth)), byMonth.Metrics().FollowSkipped
		}
	}
	return alerts, skipped
}

// parkedIngestor returns an ingestor whose drainer is paused, so the
// test goroutine owns the pipeline state, and closes it when the test
// ends.
func parkedIngestor(t *testing.T, cfg IngestorConfig) *Ingestor {
	t.Helper()
	ing, err := NewIngestor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := ing.Close(); err != nil {
			t.Error(err)
		}
	})
	if err := ing.Pause(); err != nil {
		t.Fatal(err)
	}
	return ing
}

// followOrderDiff names the first output in which a and b differ: the
// alert log, a customer's stability, the SMN1 bytes or a counter.
func followOrderDiff(t *testing.T, a, b *Ingestor, ids []retail.CustomerID) string {
	if la, lb := drainLog(t, a), drainLog(t, b); !alertsEqual(la, lb) {
		return fmt.Sprintf("alert logs (%d vs %d alerts)", len(la), len(lb))
	}
	sa, sb := a.Stabilities(ids, nil), b.Stabilities(ids, nil)
	for k := range sa {
		x, y := sa[k], sb[k]
		if x.OK != y.OK || x.GridIndex != y.GridIndex || math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			return fmt.Sprintf("customer %d's stability (%+v vs %+v)", ids[k], x, y)
		}
	}
	var snapA, snapB bytes.Buffer
	if err := a.WriteSnapshot(&snapA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteSnapshot(&snapB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapA.Bytes(), snapB.Bytes()) {
		return "SMN1 bytes"
	}
	ma, mb := a.Metrics(), b.Metrics()
	if ma.ReceiptsIngested != mb.ReceiptsIngested || ma.FollowSkipped != mb.FollowSkipped || ma.Watermark != mb.Watermark ||
		ma.IngestErrors != mb.IngestErrors || ma.CustomersEvicted != mb.CustomersEvicted || ma.CustomersRetained != mb.CustomersRetained {
		return fmt.Sprintf("counters (%+v vs %+v)", ma, mb)
	}
	return ""
}
