package stream

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gautrais/stability/internal/retail"
)

// ingestorConfig builds a small-queue ingestor config on the shared test
// grid.
func ingestorConfig(t *testing.T, shards int) IngestorConfig {
	t.Helper()
	cfg := testConfig(t, 0.7)
	cfg.WarmupWindows = 2
	return IngestorConfig{Monitor: cfg, Shards: shards}
}

// enqueueAll offers the feed in fixed-size batches and fails the test on
// any refusal — used where the policy is block (lossless).
func enqueueAll(t *testing.T, i *Ingestor, feed []feedEvent, batchSize int) {
	t.Helper()
	for start := 0; start < len(feed); start += batchSize {
		end := start + batchSize
		if end > len(feed) {
			end = len(feed)
		}
		batch := make([]ReceiptEvent, 0, end-start)
		for _, ev := range feed[start:end] {
			batch = append(batch, ReceiptEvent{Customer: ev.id, Time: ev.t, Items: ev.items})
		}
		ok, err := i.Enqueue(batch)
		if err != nil || !ok {
			t.Fatalf("enqueue batch at %d: ok=%v err=%v", start, ok, err)
		}
	}
}

// replayIngestReference replays the feed through the sequential Monitor
// with the Ingestor's exact barrier rule — close every provably complete
// window when a receipt's month advances — and returns the concatenated
// per-barrier sorted alerts plus the final SMN1 snapshot. This is the
// reference the daemon-side pipeline must reproduce byte for byte.
func replayIngestReference(t *testing.T, cfg Config, feed []feedEvent) ([]Alert, []byte) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	span := cfg.Grid.Span().Months
	maxMonth := math.MinInt / 2
	lastClosedK := -1
	var alerts, pending []Alert
	for _, ev := range feed {
		if mo := monthOfEvent(cfg.Grid, ev.t); mo > maxMonth {
			maxMonth = mo
			if closeK := mo/span - 1; closeK > lastClosedK {
				pending = append(pending, m.CloseThrough(closeK)...)
				sortAlerts(pending)
				alerts = append(alerts, pending...)
				pending = nil
				lastClosedK = closeK
			}
		}
		a, err := m.Ingest(ev.id, ev.t, ev.items)
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, a...)
	}
	sortAlerts(pending)
	alerts = append(alerts, pending...)
	var snap bytes.Buffer
	if err := m.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	return alerts, snap.Bytes()
}

// drainLog reads the full alert log and checks the sequence numbering is
// contiguous from 1.
func drainLog(t *testing.T, i *Ingestor) []Alert {
	t.Helper()
	seqs, _, _ := i.AlertsSince(0, 0)
	out := make([]Alert, len(seqs))
	for idx, sa := range seqs {
		if sa.Seq != uint64(idx)+1 {
			t.Fatalf("alert %d has seq %d, want %d", idx, sa.Seq, idx+1)
		}
		out[idx] = sa.Alert
	}
	return out
}

// TestIngestorMatchesSequentialMonitor is the serving-path half of the
// determinism contract: for every shard count, pushing a feed through the
// bounded queue + drainer pipeline yields an alert log and a persisted
// SMN1 snapshot byte-identical to a sequential Monitor replay under the
// same watermark rule. The flush ticker runs hot to prove wall-clock
// barriers cannot perturb the output.
func TestIngestorMatchesSequentialMonitor(t *testing.T) {
	feed := randomFeed(t, 7, 12, 700)
	wantAlerts, wantSnap := replayIngestReference(t, ingestorConfig(t, 1).Monitor, feed)
	if len(wantAlerts) == 0 {
		t.Fatal("reference produced no alerts; feed too tame to prove anything")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		state := filepath.Join(t.TempDir(), "mon.smn")
		cfg := ingestorConfig(t, shards)
		cfg.StatePath = state
		cfg.QueueBatches = 4
		cfg.FlushInterval = time.Millisecond
		ing, err := NewIngestor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		enqueueAll(t, ing, feed, 13)
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		got := drainLog(t, ing)
		if !alertsEqual(wantAlerts, got) {
			t.Errorf("shards=%d: alert log differs from sequential replay (%d vs %d alerts)",
				shards, len(got), len(wantAlerts))
		}
		gotSnap, err := os.ReadFile(state)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantSnap, gotSnap) {
			t.Errorf("shards=%d: persisted snapshot differs from sequential replay", shards)
		}
		m := ing.Metrics()
		if m.ReceiptsIngested != uint64(len(feed)) {
			t.Errorf("shards=%d: ingested %d receipts, want %d", shards, m.ReceiptsIngested, len(feed))
		}
		if m.AlertsEmitted != uint64(len(wantAlerts)) {
			t.Errorf("shards=%d: emitted %d alerts, want %d", shards, m.AlertsEmitted, len(wantAlerts))
		}
		if m.Saves == 0 || m.SaveErrors != 0 {
			t.Errorf("shards=%d: saves=%d saveErrors=%d", shards, m.Saves, m.SaveErrors)
		}
	}
}

// TestIngestorResumeByteIdentical kills the pipeline mid-stream, restores
// from the persisted snapshot, and finishes the feed: the concatenated
// alert logs and the final state file must match an uninterrupted run.
func TestIngestorResumeByteIdentical(t *testing.T) {
	feed := randomFeed(t, 21, 10, 600)
	wantAlerts, wantSnap := replayIngestReference(t, ingestorConfig(t, 1).Monitor, feed)

	for _, cut := range []int{1, len(feed) / 3, len(feed) / 2, len(feed) - 1} {
		state := filepath.Join(t.TempDir(), "mon.smn")
		var got []Alert
		for leg, part := range [][]feedEvent{feed[:cut], feed[cut:]} {
			cfg := ingestorConfig(t, 4)
			cfg.StatePath = state
			ing, err := NewIngestor(cfg)
			if err != nil {
				t.Fatalf("cut=%d leg %d: %v", cut, leg, err)
			}
			enqueueAll(t, ing, part, 7)
			if err := ing.Close(); err != nil {
				t.Fatalf("cut=%d leg %d: close: %v", cut, leg, err)
			}
			got = append(got, drainLog(t, ing)...)
		}
		if !alertsEqual(wantAlerts, got) {
			t.Errorf("cut=%d: resumed alert stream differs from uninterrupted run", cut)
		}
		gotSnap, err := os.ReadFile(state)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantSnap, gotSnap) {
			t.Errorf("cut=%d: final snapshot differs from uninterrupted run", cut)
		}
	}
}

// pausedIngestor builds an ingestor with the drainer parked and the queue
// filled to capacity, the setup under which each overflow policy's behavior
// is deterministic.
func pausedIngestor(t *testing.T, policy OverflowPolicy) *Ingestor {
	t.Helper()
	cfg := ingestorConfig(t, 2)
	cfg.QueueBatches = 2
	cfg.Policy = policy
	ing, err := NewIngestor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	if err := ing.Pause(); err != nil {
		t.Fatal(err)
	}
	g := testGrid(t)
	for b := 0; b < cfg.QueueBatches; b++ {
		ok, err := ing.Enqueue([]ReceiptEvent{{
			Customer: retail.CustomerID(b + 1),
			Time:     at(g, 0, b),
			Items:    retail.NewBasket([]retail.ItemID{1}),
		}})
		if !ok || err != nil {
			t.Fatalf("fill batch %d: ok=%v err=%v", b, ok, err)
		}
	}
	if d := ing.Metrics().QueueDepth; d != cfg.QueueBatches {
		t.Fatalf("queue depth %d after fill, want %d", d, cfg.QueueBatches)
	}
	return ing
}

func overflowBatch(t *testing.T, n int) []ReceiptEvent {
	t.Helper()
	g := testGrid(t)
	batch := make([]ReceiptEvent, n)
	for j := range batch {
		batch[j] = ReceiptEvent{
			Customer: retail.CustomerID(100 + j),
			Time:     at(g, 0, 3),
			Items:    retail.NewBasket([]retail.ItemID{2}),
		}
	}
	return batch
}

func TestIngestorPolicyBlock(t *testing.T) {
	ing := pausedIngestor(t, PolicyBlock)
	done := make(chan error, 1)
	go func() {
		ok, err := ing.Enqueue(overflowBatch(t, 3))
		if err == nil && !ok {
			err = errors.New("blocked enqueue returned ok=false")
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Enqueue returned while queue full and drainer paused: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	ing.Resume()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Enqueue still blocked after Resume")
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if m := ing.Metrics(); m.ReceiptsIngested != 5 || m.ReceiptsShed != 0 || m.ReceiptsRejected != 0 {
		t.Fatalf("block policy lost receipts: %+v", m)
	}
}

func TestIngestorPolicyShed(t *testing.T) {
	ing := pausedIngestor(t, PolicyShed)
	ok, err := ing.Enqueue(overflowBatch(t, 3))
	if ok || err != nil {
		t.Fatalf("shed: got ok=%v err=%v, want dropped with nil error", ok, err)
	}
	ing.Resume()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if m := ing.Metrics(); m.ReceiptsShed != 3 || m.ReceiptsIngested != 2 || m.ReceiptsRejected != 0 {
		t.Fatalf("shed policy counters: %+v", m)
	}
}

func TestIngestorPolicyReject(t *testing.T) {
	ing := pausedIngestor(t, PolicyReject)
	ok, err := ing.Enqueue(overflowBatch(t, 3))
	if ok || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("reject: got ok=%v err=%v, want ErrQueueFull", ok, err)
	}
	ing.Resume()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if m := ing.Metrics(); m.ReceiptsRejected != 3 || m.ReceiptsIngested != 2 || m.ReceiptsShed != 0 {
		t.Fatalf("reject policy counters: %+v", m)
	}
}

// TestIngestorAlertLog covers the ring: trimming to AlertBuffer, gap
// reporting through oldest, the max cap, and the long-poll wake channel.
func TestIngestorAlertLog(t *testing.T) {
	cfg := ingestorConfig(t, 1)
	cfg.AlertBuffer = 4
	ing, err := NewIngestor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	_, _, wait := ing.AlertsSince(0, 0)
	select {
	case <-wait:
		t.Fatal("wait channel closed before any publication")
	default:
	}

	mk := func(n int) []Alert {
		out := make([]Alert, n)
		for j := range out {
			out[j] = Alert{Customer: retail.CustomerID(j + 1), GridIndex: j}
		}
		return out
	}
	ing.publish(mk(6)) // seqs 1..6, ring keeps 3..6

	select {
	case <-wait:
	default:
		t.Fatal("wait channel not closed by publish")
	}

	batch, oldest, _ := ing.AlertsSince(0, 0)
	if oldest != 3 {
		t.Fatalf("oldest=%d, want 3 after trimming to AlertBuffer=4", oldest)
	}
	if len(batch) != 4 || batch[0].Seq != 3 || batch[3].Seq != 6 {
		t.Fatalf("full read returned %d alerts, seqs %v", len(batch), batch)
	}

	batch, _, _ = ing.AlertsSince(4, 0)
	if len(batch) != 2 || batch[0].Seq != 5 {
		t.Fatalf("resume after 4: got %d alerts starting at %d", len(batch), batch[0].Seq)
	}

	batch, _, _ = ing.AlertsSince(0, 2)
	if len(batch) != 2 || batch[1].Seq != 4 {
		t.Fatalf("max=2: got %d alerts", len(batch))
	}

	if batch, _, _ := ing.AlertsSince(6, 0); len(batch) != 0 {
		t.Fatalf("caught-up read returned %d alerts", len(batch))
	}
}

// TestIngestorAlertsSinceHugeAfter is a regression test: cursors far past
// the newest sequence (e.g. a forged ?after= or Last-Event-ID of MaxInt64
// and beyond) used to wrap negative in the slice-offset conversion and
// panic; they must return an empty batch.
func TestIngestorAlertsSinceHugeAfter(t *testing.T) {
	ing, err := NewIngestor(ingestorConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	alerts := make([]Alert, 3)
	for j := range alerts {
		alerts[j] = Alert{Customer: retail.CustomerID(j + 1), GridIndex: j}
	}
	ing.publish(alerts) // seqs 1..3

	for _, after := range []uint64{3, 4, math.MaxInt64, math.MaxInt64 + 1, math.MaxUint64} {
		if batch, _, _ := ing.AlertsSince(after, 10); len(batch) != 0 {
			t.Errorf("after=%d: got %d alerts, want 0", after, len(batch))
		}
	}
	if batch, _, _ := ing.AlertsSince(2, 10); len(batch) != 1 || batch[0].Seq != 3 {
		t.Errorf("after=2: got %v, want exactly seq 3", batch)
	}
}

// TestIngestorOffsetTimestampsMatchSequential spells every receipt
// timestamp in a non-UTC fixed zone, with evening instants so spellings
// like 2012-07-01T01:30:00+05:30 (June 30 in UTC) land on the far side of
// a month boundary, and pins the pipeline output byte-identical to the
// sequential replay. Regression test: the drainer's month indexing used
// the spelling's own zone, so such a receipt advanced the watermark a
// month early, force-closed a window that still had valid receipts in
// flight, and broke the determinism contract.
func TestIngestorOffsetTimestampsMatchSequential(t *testing.T) {
	zone := time.FixedZone("UTC+5:30", 5*3600+1800)
	feed := randomFeed(t, 7, 12, 700)
	crossings := 0
	for idx := range feed {
		// 07:00 → 20:00 UTC, spelled 01:30 next day in the +05:30 zone.
		feed[idx].t = feed[idx].t.Add(13 * time.Hour).In(zone)
		if feed[idx].t.Month() != feed[idx].t.UTC().Month() {
			crossings++
		}
	}
	if crossings == 0 {
		t.Fatal("no spelling crosses a month boundary; feed proves nothing")
	}
	wantAlerts, wantSnap := replayIngestReference(t, ingestorConfig(t, 1).Monitor, feed)
	if len(wantAlerts) == 0 {
		t.Fatal("reference produced no alerts; feed too tame to prove anything")
	}
	for _, shards := range []int{1, 4} {
		state := filepath.Join(t.TempDir(), "mon.smn")
		cfg := ingestorConfig(t, shards)
		cfg.StatePath = state
		ing, err := NewIngestor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		enqueueAll(t, ing, feed, 13)
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		got := drainLog(t, ing)
		if !alertsEqual(wantAlerts, got) {
			t.Errorf("shards=%d: offset-spelled feed diverges from sequential replay (%d vs %d alerts)",
				shards, len(got), len(wantAlerts))
		}
		gotSnap, err := os.ReadFile(state)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantSnap, gotSnap) {
			t.Errorf("shards=%d: persisted snapshot differs from sequential replay", shards)
		}
		if m := ing.Metrics(); m.IngestErrors != 0 {
			t.Errorf("shards=%d: %d ingest errors", shards, m.IngestErrors)
		}
	}
}

// TestIngestorLifecycle pins the closed-state errors and pause misuse.
func TestIngestorLifecycle(t *testing.T) {
	ing, err := NewIngestor(ingestorConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Pause(); err == nil {
		t.Fatal("double Pause succeeded")
	}
	if err := ing.Close(); err != nil { // Close must release a paused drainer
		t.Fatal(err)
	}
	if err := ing.Close(); !errors.Is(err, ErrIngestorClosed) {
		t.Fatalf("second Close: %v", err)
	}
	if ok, err := ing.Enqueue(overflowBatch(t, 1)); ok || !errors.Is(err, ErrIngestorClosed) {
		t.Fatalf("Enqueue after Close: ok=%v err=%v", ok, err)
	}
	if err := ing.Pause(); !errors.Is(err, ErrIngestorClosed) {
		t.Fatalf("Pause after Close: %v", err)
	}
	if ok, err := ing.Enqueue(nil); !ok || err != nil {
		t.Fatalf("empty batch must be a no-op even when closed: ok=%v err=%v", ok, err)
	}
}

// TestIngestorCloseWithConcurrentReaders closes ingestors while readers
// loop over Stabilities, Customers and Metrics. A reader that found the
// monitor open just before Close stopped its shards would queue a control
// message no shard reads any more and wait for it forever: every reader
// must return once Close has.
func TestIngestorCloseWithConcurrentReaders(t *testing.T) {
	const rounds = 300
	ids := []retail.CustomerID{1, 2, 3, 4}
	readers := []func(*Ingestor){
		func(ing *Ingestor) { ing.Stabilities(ids, nil) },
		func(ing *Ingestor) { ing.Customers() },
		func(ing *Ingestor) { ing.Metrics() },
	}
	for round := 0; round < rounds; round++ {
		ing, err := NewIngestor(ingestorConfig(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		var stop atomic.Bool
		var running sync.WaitGroup
		done := make(chan struct{}, len(readers))
		running.Add(len(readers))
		for _, read := range readers {
			go func() {
				defer func() { done <- struct{}{} }()
				read(ing)
				running.Done()
				for !stop.Load() {
					read(ing)
				}
			}()
		}
		running.Wait()
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		stop.Store(true)
		timeout := time.After(10 * time.Second)
		for range readers {
			select {
			case <-done:
			case <-timeout:
				t.Fatalf("round %d: a reader that overlapped Close never returned", round)
			}
		}
	}
}

// TestIngestorBackgroundSaver waits for the periodic saver to write the
// state file without any Close.
func TestIngestorBackgroundSaver(t *testing.T) {
	state := filepath.Join(t.TempDir(), "mon.smn")
	cfg := ingestorConfig(t, 1)
	cfg.StatePath = state
	cfg.SaveInterval = time.Millisecond
	ing, err := NewIngestor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	for tries := 0; tries < 1000; tries++ {
		if ing.Metrics().Saves > 0 {
			if _, err := os.Stat(state); err != nil {
				t.Fatalf("saves counted but state file missing: %v", err)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("background saver never fired")
}

// TestIngestorConfigValidation covers Validate and the policy parser.
func TestIngestorConfigValidation(t *testing.T) {
	good := ingestorConfig(t, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Policy = OverflowPolicy(42)
	if err := bad.Validate(); err == nil {
		t.Error("unknown policy passed Validate")
	}
	if _, err := NewIngestor(bad); err == nil {
		t.Error("NewIngestor accepted unknown policy")
	}
	bad = good
	bad.SaveInterval = -time.Second
	if err := bad.Validate(); err == nil {
		t.Error("negative SaveInterval passed Validate")
	}
	bad = good
	bad.Monitor.Beta = -1
	if err := bad.Validate(); err == nil {
		t.Error("invalid monitor config passed Validate")
	}

	for _, p := range []OverflowPolicy{PolicyBlock, PolicyShed, PolicyReject} {
		back, err := ParseOverflowPolicy(p.String())
		if err != nil || back != p {
			t.Errorf("ParseOverflowPolicy(%q) = %v, %v", p.String(), back, err)
		}
	}
	if _, err := ParseOverflowPolicy("drop"); err == nil {
		t.Error("ParseOverflowPolicy accepted garbage")
	}
	if s := OverflowPolicy(9).String(); s != "OverflowPolicy(9)" {
		t.Errorf("unknown policy String() = %q", s)
	}
}
