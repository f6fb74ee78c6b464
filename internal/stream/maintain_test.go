package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/gautrais/stability/internal/faultfs"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/store"
)

// appendFeedSegment appends the feed slice to path as one STB1 segment,
// the way an external snapshot writer grows a chain.
func appendFeedSegment(t *testing.T, path string, feed []feedEvent) {
	t.Helper()
	if len(feed) == 0 {
		return
	}
	b := store.NewBuilder()
	for _, ev := range feed {
		if err := b.Add(ev.id, ev.t, ev.items, 0); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := b.Build().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline expires. The waits are
// liveness only — which receipts the pipeline accepts and what it outputs
// never depend on poll timing, and the equality assertions prove it.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// followConfig builds a follow-mode ingestor config with fast ticks.
func followConfig(t *testing.T, shards int, stb, state string) IngestorConfig {
	t.Helper()
	cfg := ingestorConfig(t, shards)
	cfg.FollowPath = stb
	cfg.FollowInterval = time.Millisecond
	cfg.StatePath = state
	return cfg
}

// TestFollowModeMatchesSequentialReplay is the follow-mode half of the
// determinism contract: a daemon tailing a growing STB1 file must emit the
// same alert log and persist the same SMN1 bytes as a sequential Monitor
// replay of that file, at every shard count, regardless of how the
// appends interleave with the polls.
func TestFollowModeMatchesSequentialReplay(t *testing.T) {
	feed := randomFeed(t, 51, 12, 700)
	wantAlerts, wantSnap := replayIngestReference(t, ingestorConfig(t, 1).Monitor, feed)
	if len(wantAlerts) == 0 {
		t.Fatal("reference produced no alerts; feed too tame to prove anything")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		dir := t.TempDir()
		stb := filepath.Join(dir, "feed.stb")
		state := filepath.Join(dir, "mon.smn")
		ing, err := NewIngestor(followConfig(t, shards, stb, state))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ing.Enqueue([]ReceiptEvent{{}}); err != ErrFollowing {
			t.Fatalf("Enqueue in follow mode: err = %v, want ErrFollowing", err)
		}
		for start := 0; start < len(feed); start += 37 {
			end := start + 37
			if end > len(feed) {
				end = len(feed)
			}
			appendFeedSegment(t, stb, feed[start:end])
		}
		waitFor(t, "follower to consume the feed", func() bool {
			return ing.Metrics().ReceiptsIngested == uint64(len(feed))
		})
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if got := drainLog(t, ing); !alertsEqual(wantAlerts, got) {
			t.Errorf("shards=%d: follow-mode alert log differs from sequential replay (%d vs %d alerts)",
				shards, len(got), len(wantAlerts))
		}
		snap, err := os.ReadFile(state)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantSnap, snap) {
			t.Errorf("shards=%d: follow-mode SMN1 state differs from sequential replay", shards)
		}
	}
}

// TestFollowModeCountsSkippedReceipts appends a segment holding one receipt
// before the grid origin and one for a window closed long ago: the follower
// drops both, counts them in FollowSkipped, and its alerts and SMN1 bytes
// stay those of the feed alone.
func TestFollowModeCountsSkippedReceipts(t *testing.T) {
	feed := randomFeed(t, 53, 12, 500)
	cfg := ingestorConfig(t, 1)
	wantAlerts, wantSnap := replayIngestReference(t, cfg.Monitor, feed)
	dir := t.TempDir()
	stb := filepath.Join(dir, "feed.stb")
	state := filepath.Join(dir, "mon.smn")
	appendFeedSegment(t, stb, feed)
	ing, err := NewIngestor(followConfig(t, 2, stb, state))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower to consume the feed", func() bool {
		return ing.Metrics().ReceiptsIngested == uint64(len(feed))
	})
	origin := cfg.Monitor.Grid.Origin()
	appendFeedSegment(t, stb, []feedEvent{
		{id: 1, t: origin.Add(-time.Hour), items: retail.NewBasket([]retail.ItemID{1})},
		{id: 2, t: origin.Add(time.Hour), items: retail.NewBasket([]retail.ItemID{2})},
	})
	waitFor(t, "follower to skip the late segment", func() bool {
		return ing.Metrics().FollowSkipped == 2
	})
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if m := ing.Metrics(); m.ReceiptsIngested != uint64(len(feed)) || m.FollowSkipped != 2 {
		t.Fatalf("ingested=%d skipped=%d, want %d and 2", m.ReceiptsIngested, m.FollowSkipped, len(feed))
	}
	if got := drainLog(t, ing); !alertsEqual(wantAlerts, got) {
		t.Errorf("alert log differs from the feed's replay (%d vs %d alerts)", len(got), len(wantAlerts))
	}
	snap, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantSnap, snap) {
		t.Error("SMN1 state differs from the feed's replay")
	}
}

// TestFollowModeCatchUpOverlappingSegments starts a follower on a chain
// whose segments all span the same months, so the first poll merges
// receipts from every segment into each customer's history. The alert log
// and SMN1 bytes must equal a sequential replay in the order a stable time
// sort of the decoded file gives: time, then customer id, then history
// position. The follower visits the poll month by month instead; any
// order that is not month-ascending across customers moves the month
// barriers and shows up here. The order within a month, which the monitor
// cannot observe, is pinned by store's FuzzEachByMonth and compared with
// time order by FuzzFollowMonthOrder.
func TestFollowModeCatchUpOverlappingSegments(t *testing.T) {
	raw := randomFeed(t, 55, 12, 700)
	const segments = 4
	parts := make([][]feedEvent, segments)
	for k, ev := range raw {
		parts[k%segments] = append(parts[k%segments], ev)
	}
	dir := t.TempDir()
	chain := filepath.Join(dir, "chain.stb")
	for _, p := range parts {
		appendFeedSegment(t, chain, p)
	}
	data, err := os.ReadFile(chain)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := store.ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var feed []feedEvent
	decoded.Each(func(h retail.History) bool {
		for _, r := range h.Receipts {
			feed = append(feed, feedEvent{id: h.Customer, t: r.Time, items: r.Items})
		}
		return true
	})
	sort.SliceStable(feed, func(a, b int) bool { return feed[a].t.Before(feed[b].t) })
	wantAlerts, wantSnap := replayIngestReference(t, ingestorConfig(t, 1).Monitor, feed)
	if len(wantAlerts) == 0 {
		t.Fatal("reference produced no alerts; feed too tame to prove anything")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		sub := t.TempDir()
		stb := filepath.Join(sub, "feed.stb")
		state := filepath.Join(sub, "mon.smn")
		if err := os.WriteFile(stb, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ing, err := NewIngestor(followConfig(t, shards, stb, state))
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "follower to catch up", func() bool {
			return ing.Metrics().ReceiptsIngested == uint64(len(feed))
		})
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if got := drainLog(t, ing); !alertsEqual(wantAlerts, got) {
			t.Errorf("shards=%d: catch-up alert log differs from time-ordered replay (%d vs %d alerts)",
				shards, len(got), len(wantAlerts))
		}
		snap, err := os.ReadFile(state)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantSnap, snap) {
			t.Errorf("shards=%d: catch-up SMN1 state differs from time-ordered replay", shards)
		}
	}
}

// TestFollowModeResyncUnderCompaction compacts the tailed file out from
// under a mid-tail follower, then keeps appending: the daemon must detect
// the rewrite, resync by replaying the compacted file with already-
// published windows suppressed, and still end byte-identical to the
// one-shot replay.
func TestFollowModeResyncUnderCompaction(t *testing.T) {
	feed := randomFeed(t, 52, 10, 600)
	cut := 300
	wantAlerts, wantSnap := replayIngestReference(t, ingestorConfig(t, 1).Monitor, feed)
	if len(wantAlerts) == 0 {
		t.Fatal("reference produced no alerts")
	}
	for _, shards := range []int{1, 4} {
		dir := t.TempDir()
		stb := filepath.Join(dir, "feed.stb")
		state := filepath.Join(dir, "mon.smn")
		// First half as two segments, so compaction genuinely shrinks.
		appendFeedSegment(t, stb, feed[:cut/2])
		appendFeedSegment(t, stb, feed[cut/2:cut])
		ing, err := NewIngestor(followConfig(t, shards, stb, state))
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "follower to reach the compaction point", func() bool {
			return ing.Metrics().ReceiptsIngested == uint64(cut)
		})
		if _, err := store.CompactFile(nil, stb, time.Time{}); err != nil {
			t.Fatal(err)
		}
		appendFeedSegment(t, stb, feed[cut:])
		// The resync replays the whole compacted file (cut receipts) before
		// consuming the tail, so the counter lands exactly at cut + len(feed).
		waitFor(t, "resync replay to finish", func() bool {
			return ing.Metrics().ReceiptsIngested == uint64(cut+len(feed))
		})
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if got := ing.Metrics(); got.FollowResyncs == 0 {
			t.Errorf("shards=%d: compaction under the follower triggered no resync", shards)
		}
		if got := drainLog(t, ing); !alertsEqual(wantAlerts, got) {
			t.Errorf("shards=%d: alert log across resync differs from sequential replay (%d vs %d alerts)",
				shards, len(got), len(wantAlerts))
		}
		snap, err := os.ReadFile(state)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantSnap, snap) {
			t.Errorf("shards=%d: SMN1 state across resync differs from sequential replay", shards)
		}
	}
}

// TestFollowModeResyncWhileSnapshotting loops WriteSnapshot from another
// goroutine while the tailed file is compacted five times underneath a
// live follower. Each compaction makes the drainer swap in a fresh monitor
// and close the old one; a snapshot must never read the monitor field
// unlocked or park on an old monitor's stopped shards. Run under -race to
// check the first; a hang checks the second. The output must still equal
// the sequential replay.
func TestFollowModeResyncWhileSnapshotting(t *testing.T) {
	feed := randomFeed(t, 54, 10, 600)
	wantAlerts, wantSnap := replayIngestReference(t, ingestorConfig(t, 1).Monitor, feed)
	const rounds = 5
	step := len(feed) / (rounds + 1)
	dir := t.TempDir()
	stb := filepath.Join(dir, "feed.stb")
	state := filepath.Join(dir, "mon.smn")
	appendFeedSegment(t, stb, feed[:step])
	ing, err := NewIngestor(followConfig(t, 2, stb, state))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	snapErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				snapErr <- nil
				return
			default:
			}
			if err := ing.WriteSnapshot(io.Discard); err != nil {
				snapErr <- err
				return
			}
		}
	}()
	// ingested counts every receipt the drainer processed: each segment
	// once when tailed, plus the whole file again on every resync replay.
	ingested := step
	waitFor(t, "follower to consume the first segment", func() bool {
		return ing.Metrics().ReceiptsIngested == uint64(ingested)
	})
	for r := 1; r <= rounds; r++ {
		// A second segment makes the chain compactable to a smaller file.
		appendFeedSegment(t, stb, feed[r*step:(r+1)*step])
		ingested += step
		waitFor(t, "follower to consume the appended segment", func() bool {
			return ing.Metrics().ReceiptsIngested == uint64(ingested)
		})
		if _, err := store.CompactFile(nil, stb, time.Time{}); err != nil {
			t.Fatal(err)
		}
		ingested += (r + 1) * step
		waitFor(t, "resync replay to finish", func() bool {
			m := ing.Metrics()
			return m.FollowResyncs == uint64(r) && m.ReceiptsIngested == uint64(ingested)
		})
	}
	appendFeedSegment(t, stb, feed[(rounds+1)*step:])
	ingested += len(feed) - (rounds+1)*step
	waitFor(t, "follower to consume the tail", func() bool {
		return ing.Metrics().ReceiptsIngested == uint64(ingested)
	})
	close(stop)
	if err := <-snapErr; err != nil {
		t.Fatalf("WriteSnapshot during resyncs: %v", err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if got := drainLog(t, ing); !alertsEqual(wantAlerts, got) {
		t.Errorf("alert log across resyncs differs from sequential replay (%d vs %d alerts)", len(got), len(wantAlerts))
	}
	snap, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantSnap, snap) {
		t.Error("SMN1 state across resyncs differs from sequential replay")
	}
}

// TestFollowModeRestartMidTail stops a follow-mode daemon mid-tail (clean
// shutdown with state) and restarts it against the same file: the restart
// replays the file with the previous run's published windows suppressed,
// so the concatenated alert logs and the final state bytes must equal an
// uninterrupted run — which equals the sequential replay.
func TestFollowModeRestartMidTail(t *testing.T) {
	feed := randomFeed(t, 53, 10, 600)
	cut := 330
	wantAlerts, wantSnap := replayIngestReference(t, ingestorConfig(t, 1).Monitor, feed)
	if len(wantAlerts) == 0 {
		t.Fatal("reference produced no alerts")
	}
	dir := t.TempDir()
	stb := filepath.Join(dir, "feed.stb")
	state := filepath.Join(dir, "mon.smn")

	appendFeedSegment(t, stb, feed[:cut/2])
	appendFeedSegment(t, stb, feed[cut/2:cut])
	ing, err := NewIngestor(followConfig(t, 4, stb, state))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first incarnation to consume the partial tail", func() bool {
		return ing.Metrics().ReceiptsIngested == uint64(cut)
	})
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	alerts := drainLog(t, ing)

	// Restart: the tail keeps growing while the daemon is down.
	appendFeedSegment(t, stb, feed[cut:])
	ing2, err := NewIngestor(followConfig(t, 4, stb, state))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "restarted incarnation to replay and catch up", func() bool {
		return ing2.Metrics().ReceiptsIngested == uint64(len(feed))
	})
	if err := ing2.Close(); err != nil {
		t.Fatal(err)
	}
	alerts = append(alerts, drainLog(t, ing2)...)
	if !alertsEqual(wantAlerts, alerts) {
		t.Errorf("alert log across restart differs from sequential replay (%d vs %d alerts)",
			len(alerts), len(wantAlerts))
	}
	snap, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantSnap, snap) {
		t.Error("SMN1 state across restart differs from sequential replay")
	}
}

// TestFollowModeRestartKeepsStateUntilCaughtUp restarts a follow-mode
// daemon with state while its file is missing: the replay closes nothing,
// so neither the saver nor Close may write its empty monitor over the
// state. A further restart with the file back catches up on its first
// poll alone, publishes no alert the first run already delivered, and
// leaves the same state bytes.
func TestFollowModeRestartKeepsStateUntilCaughtUp(t *testing.T) {
	feed := randomFeed(t, 54, 10, 400)
	_, wantSnap := replayIngestReference(t, ingestorConfig(t, 1).Monitor, feed)
	dir := t.TempDir()
	stb := filepath.Join(dir, "feed.stb")
	state := filepath.Join(dir, "mon.smn")
	appendFeedSegment(t, stb, feed)
	checkState := func(when string) {
		t.Helper()
		if snap, err := os.ReadFile(state); err != nil || !bytes.Equal(wantSnap, snap) {
			t.Fatalf("%s: state differs from sequential replay (read error %v)", when, err)
		}
	}
	run := func(cfg IngestorConfig, until func(IngestorMetrics) bool) (*Ingestor, []Alert) {
		t.Helper()
		ing, err := NewIngestor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "follow cycles", func() bool { return until(ing.Metrics()) })
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		return ing, drainLog(t, ing)
	}
	caughtUp := func(m IngestorMetrics) bool { return m.ReceiptsIngested == uint64(len(feed)) }

	first, alerts := run(followConfig(t, 2, stb, state), caughtUp)
	if len(alerts) == 0 {
		t.Fatal("first run published no alerts")
	}
	checkState("first run")

	missing := followConfig(t, 2, filepath.Join(dir, "moved.stb"), state)
	missing.SaveInterval = time.Millisecond
	ing, alerts := run(missing, func(m IngestorMetrics) bool { return m.FollowPolls >= 5 })
	if m := ing.Metrics(); m.Saves != 0 || len(alerts) != 0 || m.Watermark != first.Watermark() {
		t.Fatalf("restart without its file: saves=%d alerts=%d watermark=%d, want 0, 0 and %d",
			m.Saves, len(alerts), m.Watermark, first.Watermark())
	}
	checkState("restart without its file")

	// An hour-long poll period: only the poll at start can catch up.
	back := followConfig(t, 2, stb, state)
	back.FollowInterval = time.Hour
	if _, alerts = run(back, caughtUp); len(alerts) != 0 {
		t.Fatalf("restart with its file back published %d alerts again", len(alerts))
	}
	checkState("restart with its file back")
}

// journalExpected renders the feed as the journal's canonical compacted
// bytes: every accepted receipt, zero spend, merged and sorted.
func journalExpected(t *testing.T, feed []feedEvent) []byte {
	t.Helper()
	b := store.NewBuilder()
	for _, ev := range feed {
		if err := b.Add(ev.id, ev.t, ev.items, 0); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := b.Build().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// journalStore decodes a journal chain (all segments merged).
func journalStore(t *testing.T, path string) *store.Store {
	t.Helper()
	fol := store.NewFollower(nil, path)
	agg := store.NewBuilder()
	st, err := fol.Poll()
	if err != nil {
		t.Fatal(err)
	}
	for st != nil && st.NumReceipts() > 0 {
		st.Each(func(h retail.History) bool {
			for _, r := range h.Receipts {
				if err := agg.AddReceipt(h.Customer, r); err != nil {
					t.Fatal(err)
				}
			}
			return true
		})
		if st, err = fol.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	return agg.Build()
}

// buildJournalChain runs a journaling ingestor over the feed and returns
// the resulting multi-segment chain bytes.
func buildJournalChain(t *testing.T, feed []feedEvent, journal string) []byte {
	t.Helper()
	cfg := ingestorConfig(t, 2)
	cfg.JournalPath = journal
	ing, err := NewIngestor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enqueueAll(t, ing, feed, 13)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := ing.Metrics().JournalSegments; segs < 2 {
		t.Fatalf("journal chain has %d segments, want >= 2 for a real compaction", segs)
	}
	chain, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	return chain
}

// TestJournalRecordsAcceptedReceipts: the daemon-owned journal must hold
// exactly the accepted receipt sequence, and Compact must rewrite the
// chain to the canonical single-segment bytes while the daemon serves.
func TestJournalRecordsAcceptedReceipts(t *testing.T) {
	feed := randomFeed(t, 61, 9, 500)
	journal := filepath.Join(t.TempDir(), "receipts.stbj")
	cfg := ingestorConfig(t, 4)
	cfg.JournalPath = journal
	ing, err := NewIngestor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enqueueAll(t, ing, feed, 17)
	waitFor(t, "queue to drain", func() bool {
		return ing.Metrics().ReceiptsIngested == uint64(len(feed))
	})
	if _, err := ing.Compact(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if want := journalExpected(t, feed); !bytes.Equal(want, got) {
		t.Error("compacted journal differs from canonical bytes of the accepted receipts")
	}
	m := ing.Metrics()
	if m.Compactions != 1 || m.JournalSegments != 1 {
		t.Errorf("compactions = %d, segments = %d; want 1, 1", m.Compactions, m.JournalSegments)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing after the compaction must not add anything: the journal
	// already held every accepted receipt.
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, after) {
		t.Error("Close after Compact changed the journal")
	}
}

// TestJournalCompactionCrashAtEveryByte is the acceptance sweep: with a
// crash injected at every byte offset of the compaction rewrite, the
// daemon's Compact must fail loudly leaving the pre-compaction chain
// untouched, and a retry must land exactly on the compacted bytes — never
// a torn state.
func TestJournalCompactionCrashAtEveryByte(t *testing.T) {
	feed := randomFeed(t, 62, 5, 150)
	dir := t.TempDir()
	journal := filepath.Join(dir, "receipts.stbj")
	chain := buildJournalChain(t, feed, journal)
	want := journalExpected(t, feed)

	for off := 0; off < len(want); off++ {
		if err := os.WriteFile(journal, chain, 0o644); err != nil {
			t.Fatal(err)
		}
		in := faultfs.NewInjector(faultfs.OS{})
		in.Arm(faultfs.Failpoint{Op: faultfs.OpWrite, PathSuffix: ".tmp", Crash: true, CrashAtByte: int64(off)})
		cfg := ingestorConfig(t, 1)
		cfg.JournalPath = journal
		cfg.FS = in
		ing, err := NewIngestor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ing.Compact(); err == nil {
			t.Fatalf("offset %d: Compact with a crash injected reported success", off)
		}
		got, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(chain, got) {
			t.Fatalf("offset %d: failed compaction tore the chain", off)
		}
		in.Reset()
		if _, err := ing.Compact(); err != nil {
			t.Fatalf("offset %d: recovery compaction failed: %v", off, err)
		}
		if got, err = os.ReadFile(journal); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("offset %d: recovered journal differs from canonical bytes", off)
		}
		m := ing.Metrics()
		if m.CompactionFailures != 1 || m.Compactions != 1 {
			t.Fatalf("offset %d: failures = %d, compactions = %d; want 1, 1", off, m.CompactionFailures, m.Compactions)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalTornTailTruncatedOnRestart: a crashed append leaves a torn
// trailing segment; the next start must cut it back to the last complete
// boundary and keep journaling, while real corruption refuses to start.
func TestJournalTornTailTruncatedOnRestart(t *testing.T) {
	feed := randomFeed(t, 63, 6, 300)
	dir := t.TempDir()
	journal := filepath.Join(dir, "receipts.stbj")
	chain := buildJournalChain(t, feed, journal)

	// Torn tail: half of another segment's bytes (a valid segment prefix).
	var extra bytes.Buffer
	b := store.NewBuilder()
	for _, ev := range feed[:40] {
		if err := b.Add(ev.id, ev.t.AddDate(2, 0, 0), ev.items, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Build().WriteBinary(&extra); err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), chain...), extra.Bytes()[:extra.Len()/2]...)
	if err := os.WriteFile(journal, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := ingestorConfig(t, 2)
	cfg.JournalPath = journal
	ing, err := NewIngestor(cfg)
	if err != nil {
		t.Fatalf("restart over a torn journal tail failed: %v", err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chain, got) {
		t.Error("torn tail was not truncated back to the last complete segment")
	}

	// Corruption (mangled segment magic — the codec's structural
	// invariant; payload bytes carry no checksum) must refuse to start.
	bad := append([]byte(nil), chain...)
	bad[0] ^= 0x5a
	if err := os.WriteFile(journal, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewIngestor(cfg); err == nil {
		t.Error("NewIngestor over a corrupt journal started silently")
	}
}

// TestJournalAppendFaultKeepsReceipts: a transient write fault on a
// journal append must not lose receipts — they stay buffered, the torn
// tail is repaired, and the next barrier lands them.
func TestJournalAppendFaultKeepsReceipts(t *testing.T) {
	feed := randomFeed(t, 64, 8, 500)
	journal := filepath.Join(t.TempDir(), "receipts.stbj")
	in := faultfs.NewInjector(faultfs.OS{})
	// Fail the 3rd write to the journal file — mid-chain, after some
	// segments exist, leaving a torn tail for the repair path.
	in.Arm(faultfs.Failpoint{Op: faultfs.OpWrite, PathSuffix: ".stbj", CountDown: 2})
	cfg := ingestorConfig(t, 4)
	cfg.JournalPath = journal
	cfg.FS = in
	ing, err := NewIngestor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enqueueAll(t, ing, feed, 11)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if in.Fired() == 0 {
		t.Fatal("failpoint never fired")
	}
	if got := ing.Metrics().JournalErrors; got == 0 {
		t.Fatal("journal append fault not counted")
	}
	want := journalExpected(t, feed)
	var buf bytes.Buffer
	if err := journalStore(t, journal).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Error("journal after a transient append fault lost or duplicated receipts")
	}
}

// TestTaskBackoffSchedule drives one maintenance row tick by tick with an
// attempt that fails until healed, pinning the supervised schedule: 1 +
// maintRetries attempts per failed cycle, then 1, 2, 4 … maxBackoffTicks
// skipped ticks, the streak and counters, and the reset on success.
func TestTaskBackoffSchedule(t *testing.T) {
	fails, attempts := 1<<30, 0
	var tk task
	tk.attempt = func() error {
		attempts++
		if fails > 0 {
			fails--
			return errors.New("injected")
		}
		return nil
	}
	tick := 0
	// runTo ticks the row through tick last and returns how many attempts
	// each tick that ran made.
	runTo := func(last int) map[int]int {
		ran := map[int]int{}
		for tick < last {
			tick++
			before := attempts
			tk.cycle()
			if n := attempts - before; n > 0 {
				ran[tick] = n
			}
		}
		return ran
	}
	check := func(phase string, streak int64, failures, retries uint64) {
		t.Helper()
		if s, f, r := tk.streak.Load(), tk.failures.Load(), tk.retries.Load(); s != streak || f != failures || r != retries {
			t.Fatalf("%s: streak=%d failures=%d retries=%d, want %d/%d/%d", phase, s, f, r, streak, failures, retries)
		}
	}

	// Failing: each cycle after the first waits 2^(streak-1) ticks, capped.
	want := map[int]int{1: 3, 3: 3, 6: 3, 11: 3, 20: 3, 37: 3, 70: 3}
	if got := runTo(102); !reflect.DeepEqual(got, want) {
		t.Fatalf("failing schedule (tick: attempts) = %v, want %v", got, want)
	}
	check("failing", 7, 7, 14)

	// Healed: the next due tick succeeds at once and clears the backoff.
	fails = 0
	if got, want := runTo(105), map[int]int{103: 1, 104: 1, 105: 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("healed schedule = %v, want %v", got, want)
	}
	check("healed", 0, 7, 14)

	// A cycle rescued by a retry is a success: no failure, no backoff.
	fails = 1
	if got, want := runTo(107), map[int]int{106: 2, 107: 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("retry-rescued schedule = %v, want %v", got, want)
	}
	check("rescued", 0, 7, 15)
}

// TestSaveCycleBackoffAndDegradedFault drives each maintenance row —
// saver, compactor, follower — through a persistent faultfs failure into
// the degraded health state and back: the row's reason names its failed
// cycles, its counters agree with the schedule, and clearing the fault
// heals the row and the health without a restart.
func TestSaveCycleBackoffAndDegradedFault(t *testing.T) {
	feed := randomFeed(t, 65, 6, 120)
	cases := []struct {
		name   string
		reason string
		// config points the row at files in dir and arms its fault.
		config func(t *testing.T, cfg *IngestorConfig, dir string, in *faultfs.Injector)
		// failed checks the degraded row's counters and returns its failed
		// cycles.
		failed func(t *testing.T, m IngestorMetrics) uint64
		// healed reports whether the row's work got done after the fault
		// cleared.
		healed func(m IngestorMetrics) bool
	}{
		{
			name:   "saver",
			reason: "saver failing: %d consecutive save cycles failed",
			config: func(t *testing.T, cfg *IngestorConfig, dir string, in *faultfs.Injector) {
				cfg.StatePath = filepath.Join(dir, "mon.smn")
				cfg.SaveInterval = time.Millisecond
				in.Arm(faultfs.Failpoint{Op: faultfs.OpCreate, PathSuffix: ".tmp", Persistent: true})
			},
			failed: func(t *testing.T, m IngestorMetrics) uint64 {
				n := m.StateSaveFailures
				if m.SaveRetries != 2*n || m.Saves != 3*n || m.SaveErrors != 3*n {
					t.Errorf("after %d failed cycles: retries=%d saves=%d errors=%d, want %d/%d/%d",
						n, m.SaveRetries, m.Saves, m.SaveErrors, 2*n, 3*n, 3*n)
				}
				return n
			},
			healed: func(m IngestorMetrics) bool { return m.Saves > m.SaveErrors },
		},
		{
			name:   "compactor",
			reason: "compactor backing off: %d consecutive compactions failed",
			config: func(t *testing.T, cfg *IngestorConfig, dir string, in *faultfs.Injector) {
				cfg.JournalPath = filepath.Join(dir, "receipts.stbj")
				cfg.CompactInterval = time.Millisecond
				buildJournalChain(t, feed, cfg.JournalPath)
				in.Arm(faultfs.Failpoint{Op: faultfs.OpCreate, PathSuffix: ".stbj.tmp", Persistent: true})
			},
			failed: func(t *testing.T, m IngestorMetrics) uint64 {
				if m.Compactions != 0 || m.JournalSegments < 2 {
					t.Errorf("failing compactor: compactions=%d segments=%d, want 0 and the whole chain",
						m.Compactions, m.JournalSegments)
				}
				return m.CompactionFailures
			},
			healed: func(m IngestorMetrics) bool { return m.Compactions == 1 && m.JournalSegments == 1 },
		},
		{
			name:   "follower",
			reason: "follower stalled: %d consecutive poll cycles failed",
			config: func(t *testing.T, cfg *IngestorConfig, dir string, in *faultfs.Injector) {
				cfg.FollowPath = filepath.Join(dir, "feed.stb")
				cfg.FollowInterval = time.Millisecond
				appendFeedSegment(t, cfg.FollowPath, feed)
				in.Arm(faultfs.Failpoint{Op: faultfs.OpOpen, PathSuffix: "feed.stb", Persistent: true})
			},
			failed: func(t *testing.T, m IngestorMetrics) uint64 {
				// Every poll fails, and a failed cycle polls 1+maintRetries
				// times before it backs off.
				if m.FollowPolls != m.FollowErrors || m.FollowErrors%(1+maintRetries) != 0 || m.ReceiptsIngested != 0 {
					t.Errorf("stalled follower: polls=%d errors=%d ingested=%d, want %d polls per cycle, all failed, nothing ingested",
						m.FollowPolls, m.FollowErrors, m.ReceiptsIngested, 1+maintRetries)
				}
				return m.FollowErrors / (1 + maintRetries)
			},
			healed: func(m IngestorMetrics) bool { return m.ReceiptsIngested == uint64(len(feed)) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := faultfs.NewInjector(faultfs.OS{})
			cfg := ingestorConfig(t, 2)
			cfg.FS = in
			tc.config(t, &cfg, t.TempDir(), in)
			ing, err := NewIngestor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ing.Close()
			waitFor(t, tc.name+" to degrade", func() bool { return ing.Metrics().Degraded })
			// A parked drainer runs no cycle, so counters and health agree.
			if err := ing.Pause(); err != nil {
				t.Fatal(err)
			}
			n := tc.failed(t, ing.Metrics())
			want := fmt.Sprintf(tc.reason, n)
			if h := ing.Health(); n < degradedThreshold || len(h.Reasons) != 1 || h.Reasons[0] != want {
				t.Fatalf("after %d failed cycles: health %+v, want the one reason %q", n, h, want)
			}
			if h := ing.Health(); len(h.Causes) != 1 || !errors.Is(h.Causes[0], faultfs.ErrInjected) {
				t.Fatalf("degraded row's causes %v, want the injected fault", h.Causes)
			}
			ing.Resume()
			in.Reset()
			waitFor(t, tc.name+" to heal", func() bool {
				m := ing.Metrics()
				return !m.Degraded && tc.healed(m)
			})
			if h := ing.Health(); h.Degraded || len(h.Reasons) != 0 {
				t.Fatalf("healed row still reports %+v", h)
			}
			if err := ing.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
