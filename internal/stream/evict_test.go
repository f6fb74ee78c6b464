package stream

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/gautrais/stability/internal/retail"
)

// attritionFeed builds a defection-shaped feed: every customer is active
// from window 0 through a customer-specific last window (gaps inside the
// active span never reach maxGap windows), then silent forever — the shape
// the retention horizon is designed for. Returns the time-sorted feed and
// each customer's last active window.
func attritionFeed(t *testing.T, seed int64, customers, maxWindow, maxGap int) ([]feedEvent, map[retail.CustomerID]int) {
	t.Helper()
	g := testGrid(t)
	r := rand.New(rand.NewSource(seed))
	last := make(map[retail.CustomerID]int, customers)
	var feed []feedEvent
	for c := 0; c < customers; c++ {
		id := retail.CustomerID(c*7919 + 1)
		lastW := r.Intn(maxWindow) + 1
		last[id] = lastW
		prev := 0
		for w := 0; w <= lastW; w++ {
			// Buy at the last window, at window 0, whenever a longer gap
			// would cross the horizon, and otherwise at random.
			if w != 0 && w != lastW && w-prev < maxGap && r.Float64() < 0.45 {
				continue
			}
			prev = w
			items := make([]retail.ItemID, r.Intn(3)+1)
			for j := range items {
				items[j] = retail.ItemID(r.Intn(8) + 1)
			}
			feed = append(feed, feedEvent{
				id:    id,
				t:     at(g, w, r.Intn(25)),
				items: retail.NewBasket(items),
			})
		}
	}
	sort.SliceStable(feed, func(i, j int) bool { return feed[i].t.Before(feed[j].t) })
	return feed, last
}

// TestEvictedMatchesFullInsideHorizon is the tentpole equivalence property:
// for a defection-shaped feed, a monitor with a retention horizon H emits
// exactly the full-retention monitor's alerts with GridIndex inside each
// customer's horizon (last active window + H), bit for bit — eviction only
// removes scoring that would happen after the horizon, never changes it.
// Retained customers' stabilities also match, and the sharded engine
// reproduces the evicting sequential monitor byte-identically at every
// shard count.
func TestEvictedMatchesFullInsideHorizon(t *testing.T) {
	const (
		horizon   = 3
		maxWindow = 12
	)
	feed, last := attritionFeed(t, 99, 30, maxWindow, horizon)

	fullCfg := testConfig(t, 0.7)
	evictCfg := fullCfg
	evictCfg.RetentionWindows = horizon

	fullBatches, fullMon := replaySingle(t, fullCfg, feed, maxWindow)
	evictBatches, evictMon := replaySingle(t, evictCfg, feed, maxWindow)

	if len(fullBatches) != len(evictBatches) {
		t.Fatalf("batch counts differ: full %d, evicting %d", len(fullBatches), len(evictBatches))
	}
	total := 0
	for bi := range fullBatches {
		var want []Alert
		for _, a := range fullBatches[bi] {
			if a.GridIndex <= last[a.Customer]+horizon {
				want = append(want, a)
			}
		}
		if !alertsEqual(want, evictBatches[bi]) {
			t.Fatalf("batch %d: evicting alerts differ from horizon-filtered full alerts (%d vs %d)",
				bi, len(evictBatches[bi]), len(want))
		}
		total += len(evictBatches[bi])
	}
	if total == 0 {
		t.Fatal("no alerts inside the horizon; feed too tame to prove anything")
	}

	// Customers still inside their horizon at the last barrier must carry
	// identical stabilities in both monitors.
	retained := 0
	for id, lw := range last {
		if lw+horizon <= maxWindow {
			continue // evicted by the final barrier
		}
		retained++
		fv, fk, fok := fullMon.Stability(id)
		ev, ek, eok := evictMon.Stability(id)
		if fv != ev || fk != ek || fok != eok {
			t.Fatalf("customer %d: retained stability (%v,%d,%v) != full (%v,%d,%v)",
				id, ev, ek, eok, fv, fk, fok)
		}
	}
	if retained == 0 || retained == len(last) {
		t.Fatalf("retained %d of %d customers; feed exercises only one side of the horizon", retained, len(last))
	}
	if got := evictMon.Customers(); got != retained {
		t.Fatalf("evicting monitor tracks %d customers, want %d retained", got, retained)
	}
	if got := evictMon.Evicted(); got != uint64(len(last)-retained) {
		t.Fatalf("Evicted() = %d, want %d", got, len(last)-retained)
	}

	// Closing far past every horizon drains the monitor completely: the
	// memory bound holds over unbounded silent time.
	evictMon.CloseThrough(maxWindow + horizon + int(2))
	if got := evictMon.Customers(); got != 0 {
		t.Fatalf("customers after closing past every horizon: %d, want 0", got)
	}
	if got := evictMon.Evicted(); got != uint64(len(last)) {
		t.Fatalf("cumulative evictions %d, want %d", got, len(last))
	}
	// Without a horizon the same barrier evicts nobody.
	fullMon.CloseThrough(maxWindow + horizon + 2)
	if got := fullMon.Evicted(); got != 0 {
		t.Fatalf("full-retention monitor evicted %d customers", got)
	}
	if got := fullMon.Customers(); got != len(last) {
		t.Fatalf("full-retention monitor tracks %d customers, want %d", got, len(last))
	}

	// The sharded engine must reproduce the evicting sequential monitor
	// batch-for-batch and snapshot-byte-for-byte at every shard count.
	var wantSnap bytes.Buffer
	_, seqMon := replaySingle(t, evictCfg, feed, maxWindow)
	if err := seqMon.WriteSnapshot(&wantSnap); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		gotBatches, s := replaySharded(t, evictCfg, shards, feed, maxWindow)
		for bi := range evictBatches {
			if !alertsEqual(evictBatches[bi], gotBatches[bi]) {
				t.Fatalf("shards=%d batch %d: sharded evicting alerts differ from sequential", shards, bi)
			}
		}
		var snap bytes.Buffer
		if err := s.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantSnap.Bytes(), snap.Bytes()) {
			t.Fatalf("shards=%d: snapshot bytes differ from sequential evicting monitor", shards)
		}
		if got := s.Evicted(); got != uint64(len(last)-retained) {
			t.Fatalf("shards=%d: Evicted() = %d, want %d", shards, got, len(last)-retained)
		}
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvictionResurrectionDeterministic feeds a stream where customers go
// silent past the horizon and then return — the resurrection path, where
// the old relationship is scored to its horizon and a fresh one starts.
// The outcome must be byte-identical at every shard count.
func TestEvictionResurrectionDeterministic(t *testing.T) {
	feed := randomFeed(t, 41, 40, 400)
	cfg := testConfig(t, 0.7)
	cfg.RetentionWindows = 1
	lastK := cfg.Grid.Index(feed[len(feed)-1].t)

	wantBatches, seqMon := replaySingle(t, cfg, feed, lastK)
	if seqMon.Evicted() == 0 {
		t.Fatal("no horizon crossings; feed does not exercise resurrection")
	}
	var wantSnap bytes.Buffer
	if err := seqMon.WriteSnapshot(&wantSnap); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		gotBatches, s := replaySharded(t, cfg, shards, feed, lastK)
		if len(gotBatches) != len(wantBatches) {
			t.Fatalf("shards=%d: %d batches, want %d", shards, len(gotBatches), len(wantBatches))
		}
		for bi := range wantBatches {
			if !alertsEqual(wantBatches[bi], gotBatches[bi]) {
				t.Fatalf("shards=%d batch %d: resurrection alerts differ from sequential", shards, bi)
			}
		}
		var snap bytes.Buffer
		if err := s.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantSnap.Bytes(), snap.Bytes()) {
			t.Fatalf("shards=%d: snapshot bytes differ after resurrections", shards)
		}
		if got := s.Evicted(); got != seqMon.Evicted() {
			t.Fatalf("shards=%d: Evicted() = %d, want %d", shards, got, seqMon.Evicted())
		}
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIngestorRestoreEvictsPastHorizon restores a full-retention snapshot
// under a newly configured horizon: the construction-time barrier must
// reclaim every customer already past it — deterministically, computable
// from the snapshot alone — and nothing may change the population after.
func TestIngestorRestoreEvictsPastHorizon(t *testing.T) {
	const horizon = 2
	feed, _ := attritionFeed(t, 7, 20, 10, horizon)
	state := filepath.Join(t.TempDir(), "mon.smn")
	cfg := ingestorConfig(t, 2) // full retention
	cfg.StatePath = state
	ing, err := NewIngestor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enqueueAll(t, ing, feed, 9)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	// Expected outcome of the restore barrier, from a sequential restore.
	snap, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	evictCfg := cfg.Monitor
	evictCfg.RetentionWindows = horizon
	seq, err := ReadMonitorSnapshot(bytes.NewReader(snap), evictCfg)
	if err != nil {
		t.Fatal(err)
	}
	k, ok := seq.Watermark()
	if !ok {
		t.Fatal("empty restored monitor")
	}
	barrierAlerts := seq.CloseThrough(k - 1)
	evicted := seq.Evicted()
	if evicted == 0 || seq.Customers() == 0 {
		t.Fatalf("restore barrier evicts %d and retains %d; feed exercises only one side", evicted, seq.Customers())
	}
	if len(barrierAlerts) != 0 {
		t.Fatalf("restore barrier raised %d alerts; expired customers were already fully scored", len(barrierAlerts))
	}

	cfg2 := ingestorConfig(t, 4)
	cfg2.Monitor.RetentionWindows = horizon
	cfg2.StatePath = state
	ing2, err := NewIngestor(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	m := ing2.Metrics()
	if m.CustomersRetained != seq.Customers() || m.CustomersEvicted != seq.Evicted() {
		t.Fatalf("after restore barrier: retained=%d evicted=%d, want %d/%d",
			m.CustomersRetained, m.CustomersEvicted, seq.Customers(), seq.Evicted())
	}
	// Let the drainer run a while: the restore barrier left nothing to evict.
	time.Sleep(10 * time.Millisecond)
	m2 := ing2.Metrics()
	if m2.CustomersRetained != m.CustomersRetained || m2.CustomersEvicted != m.CustomersEvicted {
		t.Fatalf("the idle drainer changed the population: %+v -> %+v", m, m2)
	}
	if got, _, _ := ing2.AlertsSince(0, 0); len(got) != 0 {
		t.Fatalf("the restored ingestor published %d alerts from already-scored windows", len(got))
	}
}

// TestRestoreBarrierScoresNoOpenWindow checks the restore barrier against
// the horizon rule directly: closing a restored monitor through its
// watermark minus one evicts exactly the customers whose horizon ends at or
// before that window, scores no open window, and without a horizon leaves
// the snapshot byte-identical.
func TestRestoreBarrierScoresNoOpenWindow(t *testing.T) {
	const horizon = 2
	g := testGrid(t)
	feed, last := attritionFeed(t, 11, 24, 10, horizon)
	fullCfg := testConfig(t, 0.7)
	_, orig := replaySingle(t, fullCfg, feed, 9)
	// One customer runs ahead of the rest, so an open window lies past the
	// watermark.
	var ahead retail.CustomerID
	for id, lw := range last {
		if lw == 10 && (ahead == 0 || id < ahead) {
			ahead = id
		}
	}
	if ahead == 0 {
		t.Fatal("no customer active in the last window")
	}
	if _, err := orig.Ingest(ahead, at(g, 12, 1), retail.NewBasket([]retail.ItemID{1})); err != nil {
		t.Fatal(err)
	}
	last[ahead] = 12
	var snap bytes.Buffer
	if err := orig.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	// Without a horizon the barrier is a no-op.
	full, err := ReadMonitorSnapshot(bytes.NewReader(snap.Bytes()), fullCfg)
	if err != nil {
		t.Fatal(err)
	}
	k, ok := full.Watermark()
	if !ok || k != 10 {
		t.Fatalf("restored watermark %d,%v, want 10", k, ok)
	}
	if alerts := full.CloseThrough(k - 1); len(alerts) != 0 {
		t.Fatalf("full-retention restore barrier raised %d alerts", len(alerts))
	}
	if full.Evicted() != 0 || full.Customers() != len(last) {
		t.Fatalf("full-retention restore barrier: evicted=%d customers=%d, want 0/%d",
			full.Evicted(), full.Customers(), len(last))
	}
	var again bytes.Buffer
	if err := full.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), snap.Bytes()) {
		t.Fatal("full-retention restore barrier changed the snapshot")
	}

	// Under a horizon it evicts exactly the customers past it.
	evictCfg := fullCfg
	evictCfg.RetentionWindows = horizon
	mon, err := ReadMonitorSnapshot(bytes.NewReader(snap.Bytes()), evictCfg)
	if err != nil {
		t.Fatal(err)
	}
	if alerts := mon.CloseThrough(k - 1); len(alerts) != 0 {
		t.Fatalf("restore barrier raised %d alerts", len(alerts))
	}
	expired := 0
	for id, lw := range last {
		v, gk, ok := mon.Stability(id)
		if lw+horizon <= k-1 {
			expired++
			if ok {
				t.Fatalf("customer %d (last active %d) survived the restore barrier", id, lw)
			}
			continue
		}
		fv, fk, fok := full.Stability(id)
		if v != fv || gk != fk || ok != fok {
			t.Fatalf("customer %d: stability (%v,%d,%v) after restore barrier, want (%v,%d,%v)",
				id, v, gk, ok, fv, fk, fok)
		}
	}
	if expired == 0 || expired == len(last) {
		t.Fatalf("restore barrier evicts %d of %d customers; feed exercises only one side", expired, len(last))
	}
	if mon.Evicted() != uint64(expired) || mon.Customers() != len(last)-expired {
		t.Fatalf("restore barrier: evicted=%d customers=%d, want %d/%d",
			mon.Evicted(), mon.Customers(), expired, len(last)-expired)
	}
	if wk, ok := mon.Watermark(); !ok || wk != k {
		t.Fatalf("watermark after restore barrier %d,%v, want %d", wk, ok, k)
	}
}

// TestEvictionSnapshotRoundTrip proves lastActiveK survives persistence: a
// restored monitor evicts at exactly the same barrier as the original.
func TestEvictionSnapshotRoundTrip(t *testing.T) {
	g := testGrid(t)
	cfg := testConfig(t, 0.7)
	cfg.RetentionWindows = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Customer 1 last active in window 3, customer 2 in window 1.
	for w := 0; w <= 3; w++ {
		if _, err := m.Ingest(1, at(g, w, 2), retail.NewBasket([]retail.ItemID{1, 2})); err != nil {
			t.Fatal(err)
		}
		if w <= 1 {
			if _, err := m.Ingest(2, at(g, w, 2), retail.NewBasket([]retail.ItemID{3})); err != nil {
				t.Fatal(err)
			}
		}
	}
	var snap bytes.Buffer
	if err := m.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	r, err := ReadMonitorSnapshot(bytes.NewReader(snap.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	origAlerts := m.CloseThrough(3)
	restAlerts := r.CloseThrough(3)
	if !alertsEqual(origAlerts, restAlerts) {
		t.Fatal("restored monitor's alerts differ from original at the eviction barrier")
	}
	// Window 3 ends customer 2's horizon (1+2); customer 1 is retained.
	for name, mon := range map[string]*Monitor{"original": m, "restored": r} {
		if got := mon.Customers(); got != 1 {
			t.Fatalf("%s: %d customers after barrier, want 1", name, got)
		}
		if got := mon.Evicted(); got != 1 {
			t.Fatalf("%s: evicted %d, want 1", name, got)
		}
	}
}
