package stream

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/retail"
)

// replayBatches feeds the feed to m and returns one alert batch per
// barrier in (grid index, customer id) order: a CloseThrough at every
// window boundary when barriers is set, and a final CloseThrough(lastK).
// Without barriers a customer who returns past their retention horizon is
// closed inside Ingest. evictedBeforeClose is Evicted() just before the
// final barrier.
func replayBatches(t *testing.T, m *Monitor, feed []feedEvent, lastK int, barriers bool) (batches [][]Alert, evictedBeforeClose uint64) {
	t.Helper()
	var pending []Alert
	flush := func(k int) {
		pending = append(pending, m.CloseThrough(k)...)
		sortAlerts(pending)
		batches = append(batches, pending)
		pending = nil
	}
	prevK := 0
	for _, ev := range feed {
		if k := m.cfg.Grid.Index(ev.t); barriers && k > prevK {
			flush(k - 1)
			prevK = k
		}
		a, err := m.Ingest(ev.id, ev.t, ev.items)
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, a...)
	}
	evictedBeforeClose = m.Evicted()
	flush(lastK)
	return batches, evictedBeforeClose
}

// replayShardedBatches is replayBatches through a ShardedMonitor.
func replayShardedBatches(t *testing.T, s *ShardedMonitor, feed []feedEvent, lastK int, barriers bool) [][]Alert {
	t.Helper()
	var batches [][]Alert
	flush := func(k int) {
		a, err := s.CloseThrough(k)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, a)
	}
	prevK := 0
	for _, ev := range feed {
		if k := s.cfg.Grid.Index(ev.t); barriers && k > prevK {
			flush(k - 1)
			prevK = k
		}
		if err := s.Ingest(ev.id, ev.t, ev.items); err != nil {
			t.Fatal(err)
		}
	}
	flush(lastK)
	return batches
}

// alertDiff describes the first difference between two alert batch
// sequences, comparing every field and every float by its bits; "" when
// they are identical.
func alertDiff(want, got [][]Alert) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d batches, want %d", len(got), len(want))
	}
	f := math.Float64bits
	for bi := range want {
		if len(want[bi]) != len(got[bi]) {
			return fmt.Sprintf("batch %d: %d alerts, want %d", bi, len(got[bi]), len(want[bi]))
		}
		for ai, w := range want[bi] {
			g := got[bi][ai]
			if g.Customer != w.Customer || g.GridIndex != w.GridIndex || !g.Start.Equal(w.Start) || !g.End.Equal(w.End) ||
				f(g.Stability) != f(w.Stability) || f(g.Drop) != f(w.Drop) || len(g.Blame) != len(w.Blame) {
				return fmt.Sprintf("batch %d alert %d: %+v, want %+v", bi, ai, g, w)
			}
			for i, wb := range w.Blame {
				gb := g.Blame[i]
				if gb.Item != wb.Item || gb.Net != wb.Net ||
					f(gb.LogSignificance) != f(wb.LogSignificance) || f(gb.Share) != f(wb.Share) {
					return fmt.Sprintf("batch %d alert %d blame %d: %+v, want %+v", bi, ai, i, gb, wb)
				}
			}
			if !reflect.DeepEqual(g, w) {
				return fmt.Sprintf("batch %d alert %d: not DeepEqual: %+v, want %+v", bi, ai, g, w)
			}
		}
	}
	return ""
}

// TestUnhookedMatchesHooked pins the explain-on-alert path to the full
// path: a monitor with an OnScored hook explains every window in full,
// one without explains only the windows that alert, to TopJ entries. The
// alerts, stabilities and snapshot bytes must be identical, for the plain
// Monitor and for ShardedMonitor at every shard count, with and without
// per-window barriers (without them, horizon returns close inside Ingest).
// An unhooked alert's blame list must own exactly its entries, so the
// alert log holds no scan-sized arrays.
func TestUnhookedMatchesHooked(t *testing.T) {
	feed := randomFeed(t, 41, 40, 400)
	g := testGrid(t)
	lastK := g.Index(feed[len(feed)-1].t) + 2
	for _, topJ := range []int{0, 1, 3} {
		for _, maxBlame := range []int{0, 2} {
			for _, warmup := range []int{0, 4} {
				for _, retention := range []int{0, 1} {
					for _, barriers := range []bool{true, false} {
						cfg := Config{
							Grid:             g,
							Model:            core.Options{Alpha: 2, MaxBlame: maxBlame},
							Beta:             0.7,
							TopJ:             topJ,
							WarmupWindows:    warmup,
							RetentionWindows: retention,
						}
						name := fmt.Sprintf("top%d/maxblame%d/warmup%d/retention%d/barriers=%v", topJ, maxBlame, warmup, retention, barriers)
						t.Run(name, func(t *testing.T) {
							checkUnhookedMatchesHooked(t, cfg, feed, lastK, barriers)
						})
					}
				}
			}
		}
	}
}

func checkUnhookedMatchesHooked(t *testing.T, cfg Config, feed []feedEvent, lastK int, barriers bool) {
	hooked, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	windows := 0
	hooked.OnScored(func(Scored) { windows++ })
	want, evicted := replayBatches(t, hooked, feed, lastK, barriers)
	alerts := 0
	for _, b := range want {
		alerts += len(b)
	}
	if alerts == 0 || windows == 0 {
		t.Fatalf("reference raised %d alerts over %d windows; feed proves nothing", alerts, windows)
	}
	if cfg.RetentionWindows > 0 && !barriers && evicted == 0 {
		t.Fatal("no horizon return closed inside Ingest")
	}
	var wantSnap bytes.Buffer
	if err := hooked.WriteSnapshot(&wantSnap); err != nil {
		t.Fatal(err)
	}
	checkCaps := func(who string, batches [][]Alert) {
		if cfg.TopJ == 0 {
			return
		}
		for _, b := range batches {
			for _, a := range b {
				if cap(a.Blame) != len(a.Blame) {
					t.Fatalf("%s: alert %d@%d keeps blame len %d cap %d", who, a.Customer, a.GridIndex, len(a.Blame), cap(a.Blame))
				}
			}
		}
	}

	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := replayBatches(t, plain, feed, lastK, barriers)
	if d := alertDiff(want, got); d != "" {
		t.Fatalf("unhooked Monitor: %s", d)
	}
	checkCaps("unhooked Monitor", got)
	var snap bytes.Buffer
	if err := plain.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantSnap.Bytes(), snap.Bytes()) {
		t.Fatal("unhooked Monitor: snapshot bytes differ")
	}

	for _, shards := range []int{1, 2, 4, 8} {
		s, err := NewSharded(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		got := replayShardedBatches(t, s, feed, lastK, barriers)
		if d := alertDiff(want, got); d != "" {
			t.Fatalf("shards=%d: %s", shards, d)
		}
		checkCaps(fmt.Sprintf("shards=%d", shards), got)
		for _, ev := range feed {
			v1, k1, ok1 := hooked.Stability(ev.id)
			v2, k2, ok2 := s.Stability(ev.id)
			if math.Float64bits(v1) != math.Float64bits(v2) || k1 != k2 || ok1 != ok2 {
				t.Fatalf("shards=%d: stability of %d is %v@%d,%v, want %v@%d,%v", shards, ev.id, v2, k2, ok2, v1, k1, ok1)
			}
		}
		snap.Reset()
		if err := s.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantSnap.Bytes(), snap.Bytes()) {
			t.Fatalf("shards=%d: snapshot bytes differ", shards)
		}
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOnScoredGetsFullExplanation pins the hook's contract: with a hook
// registered, every scored window carries its whole blame list and its new
// items, whether or not it alerts, while the alert keeps TopJ entries.
func TestOnScoredGetsFullExplanation(t *testing.T) {
	g := testGrid(t)
	for _, warmup := range []int{0, 1 << 30} { // alerting, and suppressed by warm-up
		cfg := testConfig(t, 0.5)
		cfg.TopJ = 1
		cfg.WarmupWindows = warmup
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var scored []Scored
		m.OnScored(func(s Scored) { scored = append(scored, s) })
		full := retail.NewBasket([]retail.ItemID{1, 2, 3, 4, 5})
		for k := 0; k < 3; k++ {
			if _, err := m.Ingest(1, at(g, k, 1), full); err != nil {
				t.Fatal(err)
			}
		}
		// Window 3 keeps item 1, drops 2–5 and brings item 9.
		if _, err := m.Ingest(1, at(g, 3, 1), retail.NewBasket([]retail.ItemID{1, 9})); err != nil {
			t.Fatal(err)
		}
		alerts := m.CloseThrough(3)
		last := scored[len(scored)-1].Result
		if scored[len(scored)-1].GridIndex != 3 || len(last.Missing) != 4 || !slices.Equal(last.NewItems, []retail.ItemID{9}) {
			t.Fatalf("warmup %d: hook got window %d with %d missing, new items %v; want window 3, 4 missing, [9]",
				warmup, scored[len(scored)-1].GridIndex, len(last.Missing), last.NewItems)
		}
		wantAlerts := 1
		if warmup > 0 {
			wantAlerts = 0
		}
		if len(alerts) != wantAlerts {
			t.Fatalf("warmup %d: %d alerts, want %d", warmup, len(alerts), wantAlerts)
		}
		if wantAlerts == 1 && len(alerts[0].Blame) != 1 {
			t.Fatalf("alert keeps %d blame entries, want TopJ = 1", len(alerts[0].Blame))
		}
	}
}

// TestMonitorWarmupBoundary pins where warm-up ends now that the alert
// rule runs before the tracker folds the window in: a window alerts once
// at least WarmupWindows counted windows precede it. Customer 1 buys in
// window 0 and goes silent, so window k (k ≥ 1) has k counted windows
// before it. Customer 2 sends an empty basket in window 0 and buys in
// window 2; under first-seen counting windows 0 and 1 are not counted, so
// window k (k ≥ 3) has k−2 before it. Every silent window scores 0.
func TestMonitorWarmupBoundary(t *testing.T) {
	g := testGrid(t)
	const last = 9
	for _, warmup := range []int{0, 1, 2, 3, 5} {
		cfg := testConfig(t, 0.5)
		cfg.WarmupWindows = warmup
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := retail.NewBasket([]retail.ItemID{1, 2})
		for _, r := range []struct {
			id    retail.CustomerID
			k     int
			items retail.Basket
		}{{1, 0, b}, {2, 0, nil}, {2, 2, b}} {
			if _, err := m.Ingest(r.id, at(g, r.k, 1), r.items); err != nil {
				t.Fatal(err)
			}
		}
		got := map[retail.CustomerID][]int{}
		for _, a := range m.CloseThrough(last) {
			got[a.Customer] = append(got[a.Customer], a.GridIndex)
		}
		for id, first := range map[retail.CustomerID]int{1: max(warmup, 1), 2: max(warmup+2, 3)} {
			var want []int
			for k := first; k <= last; k++ {
				want = append(want, k)
			}
			if !slices.Equal(got[id], want) {
				t.Errorf("warmup %d customer %d: alerts in windows %v, want %v", warmup, id, got[id], want)
			}
		}
	}
}
