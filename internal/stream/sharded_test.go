package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/gautrais/stability/internal/retail"
)

type feedEvent struct {
	id    retail.CustomerID
	t     time.Time
	items retail.Basket
}

// randomFeed builds a time-sorted multi-customer feed over roughly
// maxWindows grid windows. Customer ids are deliberately spread out so they
// land on different shards under FNV-1a.
func randomFeed(t *testing.T, seed int64, customers, events int) []feedEvent {
	t.Helper()
	g := testGrid(t)
	r := rand.New(rand.NewSource(seed))
	day := 0
	feed := make([]feedEvent, 0, events)
	for i := 0; i < events; i++ {
		day += r.Intn(6)
		items := make([]retail.ItemID, r.Intn(5))
		for j := range items {
			items[j] = retail.ItemID(r.Intn(8) + 1)
		}
		feed = append(feed, feedEvent{
			id:    retail.CustomerID(r.Intn(customers)*7919 + 1),
			t:     g.Origin().AddDate(0, 0, day).Add(7 * time.Hour),
			items: retail.NewBasket(items),
		})
	}
	return feed
}

// alertsEqual compares two alert batches field by field.
func alertsEqual(a, b []Alert) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Customer != y.Customer || x.GridIndex != y.GridIndex {
			return false
		}
		if x.Stability != y.Stability || x.Drop != y.Drop {
			return false
		}
		if !x.Start.Equal(y.Start) || !x.End.Equal(y.End) {
			return false
		}
		if len(x.Blame) != len(y.Blame) {
			return false
		}
		for j := range x.Blame {
			if x.Blame[j].Item != y.Blame[j].Item || x.Blame[j].Share != y.Blame[j].Share {
				return false
			}
		}
	}
	return true
}

// replaySingle runs the feed through the single-threaded Monitor with a
// CloseThrough barrier at every window boundary, collecting one sorted alert
// batch per barrier — the reference output the sharded engine must match
// byte for byte.
func replaySingle(t *testing.T, cfg Config, feed []feedEvent, lastK int) (batches [][]Alert, m *Monitor) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pending []Alert
	flush := func(closeK int) {
		pending = append(pending, m.CloseThrough(closeK)...)
		sortAlerts(pending)
		batches = append(batches, pending)
		pending = nil
	}
	prevK := 0
	for _, ev := range feed {
		if k := cfg.Grid.Index(ev.t); k > prevK {
			flush(k - 1)
			prevK = k
		}
		a, err := m.Ingest(ev.id, ev.t, ev.items)
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, a...)
	}
	flush(lastK)
	return batches, m
}

// replaySharded is the same replay through a ShardedMonitor.
func replaySharded(t *testing.T, cfg Config, shards int, feed []feedEvent, lastK int) (batches [][]Alert, s *ShardedMonitor) {
	t.Helper()
	s, err := NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	prevK := 0
	for _, ev := range feed {
		if k := cfg.Grid.Index(ev.t); k > prevK {
			a, err := s.CloseThrough(k - 1)
			if err != nil {
				t.Fatal(err)
			}
			batches = append(batches, a)
			prevK = k
		}
		if err := s.Ingest(ev.id, ev.t, ev.items); err != nil {
			t.Fatal(err)
		}
	}
	a, err := s.CloseThrough(lastK)
	if err != nil {
		t.Fatal(err)
	}
	batches = append(batches, a)
	return batches, s
}

// TestShardedMatchesMonitor is the headline equivalence property: for any
// feed and any shard count, the sharded engine's alert batches, per-customer
// stabilities, and snapshot bytes are identical to the single-threaded
// Monitor's.
func TestShardedMatchesMonitor(t *testing.T) {
	cfg := testConfig(t, 0.7)
	cfg.WarmupWindows = 2
	const lastK = 20
	prop := func(seed int64) bool {
		feed := randomFeed(t, seed, 8, 120)
		wantBatches, single := replaySingle(t, cfg, feed, lastK)
		var wantSnap bytes.Buffer
		if err := single.WriteSnapshot(&wantSnap); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4, 8} {
			gotBatches, sharded := replaySharded(t, cfg, shards, feed, lastK)
			if len(gotBatches) != len(wantBatches) {
				t.Logf("seed %d shards %d: %d batches, want %d", seed, shards, len(gotBatches), len(wantBatches))
				return false
			}
			for i := range wantBatches {
				if !alertsEqual(wantBatches[i], gotBatches[i]) {
					t.Logf("seed %d shards %d: batch %d differs", seed, shards, i)
					return false
				}
			}
			for _, ev := range feed {
				v1, k1, ok1 := single.Stability(ev.id)
				v2, k2, ok2 := sharded.Stability(ev.id)
				if v1 != v2 || k1 != k2 || ok1 != ok2 {
					t.Logf("seed %d shards %d: stability of %d differs", seed, shards, ev.id)
					return false
				}
			}
			if single.Customers() != sharded.Customers() {
				return false
			}
			var gotSnap bytes.Buffer
			if err := sharded.WriteSnapshot(&gotSnap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantSnap.Bytes(), gotSnap.Bytes()) {
				t.Logf("seed %d shards %d: snapshot bytes differ", seed, shards)
				return false
			}
			if _, err := sharded.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestShardedSnapshotRoundTripShardCounts writes a snapshot with S shards
// and restores it with S' shards (including the single-threaded Monitor as
// S'=0): alerts on the continuation and every customer's stability must be
// identical, because shard count is not part of the persisted state.
func TestShardedSnapshotRoundTripShardCounts(t *testing.T) {
	cfg := testConfig(t, 0.7)
	feed := randomFeed(t, 42, 10, 200)
	split := len(feed) / 2
	const lastK = 25

	// Reference: single-threaded monitor over the whole feed.
	refBatches, ref := replaySingle(t, cfg, feed, lastK)
	var refAll []Alert
	for _, b := range refBatches {
		refAll = append(refAll, b...)
	}

	for _, pair := range [][2]int{{1, 4}, {4, 1}, {2, 8}, {8, 3}, {3, 5}} {
		writeShards, readShards := pair[0], pair[1]
		t.Run(fmt.Sprintf("write-%d-read-%d", writeShards, readShards), func(t *testing.T) {
			first, err := NewSharded(cfg, writeShards)
			if err != nil {
				t.Fatal(err)
			}
			var all []Alert
			ingest := func(s *ShardedMonitor, evs []feedEvent) {
				for _, ev := range evs {
					if err := s.Ingest(ev.id, ev.t, ev.items); err != nil {
						t.Fatal(err)
					}
				}
			}
			ingest(first, feed[:split])
			// Drain buffered alerts before snapshotting: they are output,
			// not state, and would otherwise be lost across the restart.
			a, err := first.Flush()
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, a...)
			var snap bytes.Buffer
			if err := first.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			if _, err := first.Close(); err != nil {
				t.Fatal(err)
			}

			restored, err := ReadShardedMonitorSnapshot(bytes.NewReader(snap.Bytes()), cfg, readShards)
			if err != nil {
				t.Fatal(err)
			}
			ingest(restored, feed[split:])
			a, err = restored.CloseThrough(lastK)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, a...)

			// The reference batches alerts at every window boundary; the
			// round-trip batches them at the snapshot point and the end.
			// Batch boundaries differ, the alert sequence must not: compare
			// the full per-customer-window sequences sorted the same way.
			sortAlerts(refAll)
			sortAlerts(all)
			if !alertsEqual(refAll, all) {
				t.Fatalf("alerts differ after %d->%d shard round-trip: got %d, want %d",
					writeShards, readShards, len(all), len(refAll))
			}
			for _, ev := range feed {
				v1, k1, ok1 := ref.Stability(ev.id)
				v2, k2, ok2 := restored.Stability(ev.id)
				if v1 != v2 || k1 != k2 || ok1 != ok2 {
					t.Fatalf("stability of customer %d differs after round-trip", ev.id)
				}
			}
			if _, err := restored.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}

	// Cross-flavor: a Monitor snapshot restores into a ShardedMonitor and
	// vice versa, byte-identically.
	t.Run("cross-flavor", func(t *testing.T) {
		var singleSnap bytes.Buffer
		if err := ref.WriteSnapshot(&singleSnap); err != nil {
			t.Fatal(err)
		}
		sharded, err := ReadShardedMonitorSnapshot(bytes.NewReader(singleSnap.Bytes()), cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		var shardedSnap bytes.Buffer
		if err := sharded.WriteSnapshot(&shardedSnap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(singleSnap.Bytes(), shardedSnap.Bytes()) {
			t.Fatal("sharded re-snapshot is not byte-identical to the Monitor snapshot")
		}
		if _, err := ReadMonitorSnapshot(bytes.NewReader(shardedSnap.Bytes()), cfg); err != nil {
			t.Fatalf("Monitor cannot restore a ShardedMonitor snapshot: %v", err)
		}
		if _, err := sharded.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShardedConcurrentProducers drives Ingest from many goroutines owning
// disjoint customer sets (the per-customer ordering contract) and checks the
// result against the sequential engine. Run with -race.
func TestShardedConcurrentProducers(t *testing.T) {
	cfg := testConfig(t, 0.7)
	const producers = 8
	const lastK = 15

	// Per-producer feeds: each producer owns customers ≡ p (mod producers).
	perProducer := make([][]feedEvent, producers)
	r := rand.New(rand.NewSource(7))
	g := testGrid(t)
	for p := 0; p < producers; p++ {
		day := 0
		for i := 0; i < 60; i++ {
			day += r.Intn(5)
			items := make([]retail.ItemID, r.Intn(4)+1)
			for j := range items {
				items[j] = retail.ItemID(r.Intn(6) + 1)
			}
			perProducer[p] = append(perProducer[p], feedEvent{
				id:    retail.CustomerID(r.Intn(4)*producers + p + 1),
				t:     g.Origin().AddDate(0, 0, day).Add(5 * time.Hour),
				items: retail.NewBasket(items),
			})
		}
	}

	// Sequential reference: customers are independent, so feeding each
	// producer's stream in turn gives the same per-customer results.
	single, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []Alert
	for _, evs := range perProducer {
		for _, ev := range evs {
			a, err := single.Ingest(ev.id, ev.t, ev.items)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, a...)
		}
	}
	want = append(want, single.CloseThrough(lastK)...)
	sortAlerts(want)

	for _, shards := range []int{1, 3, 8} {
		s, err := NewSharded(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(evs []feedEvent) {
				defer wg.Done()
				for _, ev := range evs {
					if err := s.Ingest(ev.id, ev.t, ev.items); err != nil {
						t.Error(err)
						return
					}
				}
			}(perProducer[p])
		}
		wg.Wait()
		got, err := s.CloseThrough(lastK)
		if err != nil {
			t.Fatal(err)
		}
		if !alertsEqual(want, got) {
			t.Fatalf("shards=%d: concurrent-producer alerts differ: got %d, want %d", shards, len(got), len(want))
		}
		if s.Customers() != single.Customers() {
			t.Fatalf("shards=%d: customers = %d, want %d", shards, s.Customers(), single.Customers())
		}
		final, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(final) != 0 {
			t.Fatalf("shards=%d: Close returned %d alerts after CloseThrough", shards, len(final))
		}
	}
}

// TestShardedFlushBarrier: Flush delivers every alert raised by enqueued
// receipts exactly once, and a second Flush is empty.
func TestShardedFlushBarrier(t *testing.T) {
	g := testGrid(t)
	cfg := testConfig(t, 0.7)
	s, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	full := retail.NewBasket([]retail.ItemID{1, 2, 3, 4})
	// Four healthy windows, then erosion; ingesting window 5 closes window 4
	// inside the shard goroutine, so the alert sits in the shard buffer.
	for k := 0; k < 4; k++ {
		if err := s.Ingest(7, at(g, k, 3), full); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Ingest(7, at(g, 4, 3), retail.NewBasket([]retail.ItemID{1})); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(7, at(g, 5, 3), retail.NewBasket([]retail.ItemID{1})); err != nil {
		t.Fatal(err)
	}
	alerts, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].Customer != 7 || alerts[0].GridIndex != 4 {
		t.Fatalf("Flush alerts = %+v, want one for customer 7 window 4", alerts)
	}
	again, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second Flush redelivered %d alerts", len(again))
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedEmptyAndSingleton covers the degenerate populations.
func TestShardedEmptyAndSingleton(t *testing.T) {
	g := testGrid(t)
	cfg := testConfig(t, 0.7)

	empty, err := NewSharded(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a, err := empty.Flush(); err != nil || len(a) != 0 {
		t.Fatalf("empty Flush = %v, %v", a, err)
	}
	if a, err := empty.CloseThrough(10); err != nil || len(a) != 0 {
		t.Fatalf("empty CloseThrough = %v, %v", a, err)
	}
	if empty.Customers() != 0 {
		t.Fatalf("empty Customers = %d", empty.Customers())
	}
	var snap bytes.Buffer
	if err := empty.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadShardedMonitorSnapshot(bytes.NewReader(snap.Bytes()), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Customers() != 0 {
		t.Fatalf("restored empty monitor has %d customers", restored.Customers())
	}
	if _, err := empty.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Close(); err != nil {
		t.Fatal(err)
	}

	// Singleton population: behaves exactly like the Monitor tests.
	one, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	full := retail.NewBasket([]retail.ItemID{1, 2})
	for k := 0; k < 3; k++ {
		if err := one.Ingest(4, at(g, k, 1), full); err != nil {
			t.Fatal(err)
		}
	}
	alerts, err := one.CloseThrough(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 3 {
		t.Fatalf("singleton alerts = %d, want 3", len(alerts))
	}
	v, k, ok := one.Stability(4)
	if !ok || k != 5 || v != 0 {
		t.Fatalf("singleton Stability = %v,%d,%v", v, k, ok)
	}
	if one.Customers() != 1 {
		t.Fatalf("singleton Customers = %d", one.Customers())
	}
	if _, err := one.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedErrorSurfacing: ingest errors surface at the next barrier as
// the lowest-sequence error, then clear.
func TestShardedErrorSurfacing(t *testing.T) {
	g := testGrid(t)
	cfg := testConfig(t, 0.5)
	s, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := retail.NewBasket([]retail.ItemID{1})
	// Two customers advance to window 5, then both receive stale receipts —
	// customer 2's first in feed order, so its error must be the one
	// reported regardless of which shards they hash to.
	for _, id := range []retail.CustomerID{2, 9} {
		if err := s.Ingest(id, at(g, 3, 0), b); err != nil {
			t.Fatal(err)
		}
		if err := s.Ingest(id, at(g, 5, 0), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Ingest(2, at(g, 4, 0), b); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(9, at(g, 4, 0), b); err != nil {
		t.Fatal(err)
	}
	alerts, err := s.Flush()
	if !errors.Is(err, ErrStale) {
		t.Fatalf("Flush error = %v, want ErrStale", err)
	}
	if !strings.Contains(err.Error(), "customer 2") {
		t.Fatalf("error %q does not name the lowest-sequence offender", err)
	}
	_ = alerts
	// The error was delivered; the next barrier is clean and the monitor
	// keeps serving the unaffected feed.
	if _, err := s.Flush(); err != nil {
		t.Fatalf("error not cleared after delivery: %v", err)
	}
	if err := s.Ingest(2, at(g, 6, 0), b); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CloseThrough(6); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedClosed: lifecycle errors after Close, accessors still usable.
func TestShardedClosed(t *testing.T) {
	g := testGrid(t)
	cfg := testConfig(t, 0.5)
	s, err := NewSharded(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := retail.NewBasket([]retail.ItemID{1})
	for k := 0; k < 2; k++ {
		if err := s.Ingest(3, at(g, k, 1), b); err != nil {
			t.Fatal(err)
		}
	}
	openEvicted := s.Evicted()
	openK, openOK := s.Watermark()
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(3, at(g, 2, 1), b); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after Close = %v", err)
	}
	if _, err := s.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close = %v", err)
	}
	if _, err := s.CloseThrough(5); !errors.Is(err, ErrClosed) {
		t.Fatalf("CloseThrough after Close = %v", err)
	}
	if _, err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close = %v", err)
	}
	// Read-only surface stays live on the quiescent state.
	if s.Customers() != 1 {
		t.Fatalf("Customers after Close = %d", s.Customers())
	}
	if v, k, ok := s.Stability(3); !ok || k != 0 || v != 1 {
		t.Fatalf("Stability after Close = %v,%d,%v", v, k, ok)
	}
	if got := s.Evicted(); got != openEvicted {
		t.Fatalf("Evicted after Close = %d, want %d", got, openEvicted)
	}
	if k, ok := s.Watermark(); k != openK || ok != openOK {
		t.Fatalf("Watermark after Close = %d,%v, want %d,%v", k, ok, openK, openOK)
	}
	var snap bytes.Buffer
	if err := s.WriteSnapshot(&snap); err != nil {
		t.Fatalf("WriteSnapshot after Close: %v", err)
	}
	if _, err := ReadMonitorSnapshot(bytes.NewReader(snap.Bytes()), cfg); err != nil {
		t.Fatalf("snapshot written after Close does not restore: %v", err)
	}
}

// TestShardedConcurrentSnapshots: WriteSnapshot is safe (and identical)
// from many goroutines at once — the stop-the-world pauses must serialize,
// not interleave into a shard-park deadlock. Run with -race.
func TestShardedConcurrentSnapshots(t *testing.T) {
	cfg := testConfig(t, 0.7)
	feed := randomFeed(t, 3, 6, 80)
	s, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range feed {
		if err := s.Ingest(ev.id, ev.t, ev.items); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	const writers = 6
	snaps := make([][]byte, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			if err := s.WriteSnapshot(&buf); err != nil {
				t.Error(err)
				return
			}
			snaps[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 1; i < writers; i++ {
		if !bytes.Equal(snaps[0], snaps[i]) {
			t.Fatalf("concurrent snapshot %d differs", i)
		}
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedDefaultsAndValidation: shards <= 0 resolves to GOMAXPROCS, and
// config validation runs before any goroutine starts.
func TestShardedDefaultsAndValidation(t *testing.T) {
	cfg := testConfig(t, 0.5)
	s, err := NewSharded(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() < 1 {
		t.Fatalf("Shards = %d", s.Shards())
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Beta = 1
	if _, err := NewSharded(bad, 4); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := ReadShardedMonitorSnapshot(bytes.NewReader(nil), bad, 2); err == nil {
		t.Fatal("invalid config accepted by snapshot restore")
	}
}
