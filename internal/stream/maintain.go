// Self-healing maintenance for the serving path: the drainer goroutine
// doubles as a supervisor that, between receipt batches, saves snapshots
// with bounded retry + backoff, appends accepted receipts to an STB1
// journal and self-compacts it crash-safely, and (in follow mode) tails a
// growing snapshot file as the ingest source, resyncing automatically when
// the file is compacted underneath it.
//
// Everything here rides the existing drainer select loop — no new
// goroutines (R3) — and every schedule decision (retry counts, backoff
// depth) is tick-counted, never wall-clock-derived (R2): which alerts
// exist and what the SMN1 state is remain a pure function of the accepted
// receipt sequence, fault outcomes included.
package stream

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"math"
	"sync/atomic"
	"time"

	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/store"
)

const (
	// degradedThreshold is the consecutive-failure count past which a
	// maintenance loop (saver, compactor, follower) marks the pipeline
	// degraded in Health().
	degradedThreshold = 3
	// maintRetries bounds the immediate in-cycle retries of a failed
	// maintenance attempt: one cycle makes at most 1+maintRetries attempts
	// before it gives up and backs off.
	maintRetries = 2
	// maxBackoffTicks caps the exponential backoff skip.
	maxBackoffTicks = 32
)

// backoff is tick-counted exponential backoff for a periodic maintenance
// loop: after f consecutive failed cycles, the next min(2^(f-1),
// maxBackoffTicks) ticks are skipped before the loop tries again.
// Counting ticks instead of reading a clock keeps the failure-path
// schedule a pure function of the tick/outcome sequence.
type backoff struct {
	fails int
	skip  int
}

// due reports whether this tick should run, consuming one skip otherwise.
func (b *backoff) due() bool {
	if b.skip > 0 {
		b.skip--
		return false
	}
	return true
}

func (b *backoff) failure() {
	b.fails++
	n := maxBackoffTicks
	if b.fails <= 5 {
		n = 1 << (b.fails - 1)
	}
	if n > maxBackoffTicks {
		n = maxBackoffTicks
	}
	b.skip = n
}

func (b *backoff) success() { b.fails, b.skip = 0, 0 }

// IngestorHealth is the pipeline's readiness snapshot: Degraded flips when
// a maintenance loop has failed degradedThreshold consecutive times, and
// Reasons name the failing loops. A degraded ingestor still serves queries
// and ingests receipts — degradation means its durability or input loop is
// in trouble, the signal a readiness probe should act on.
type IngestorHealth struct {
	// Degraded reports whether any maintenance loop is persistently
	// failing.
	Degraded bool `json:"degraded"`
	// Reasons lists one entry per failing loop (saver, compactor,
	// follower); empty when healthy.
	Reasons []string `json:"degraded_reasons,omitempty"`
}

// Health reports the maintenance loops' readiness state.
func (i *Ingestor) Health() IngestorHealth {
	var h IngestorHealth
	if n := i.saveFailStreak.Load(); n >= degradedThreshold {
		h.Reasons = append(h.Reasons, fmt.Sprintf("saver failing: %d consecutive save cycles failed", n))
	}
	if n := i.compactFailStreak.Load(); n >= degradedThreshold {
		h.Reasons = append(h.Reasons, fmt.Sprintf("compactor backing off: %d consecutive compactions failed", n))
	}
	if n := i.followFailStreak.Load(); n >= degradedThreshold {
		h.Reasons = append(h.Reasons, fmt.Sprintf("follower stalled: %d consecutive polls failed", n))
	}
	h.Degraded = len(h.Reasons) > 0
	return h
}

// maintain runs one supervised maintenance cycle: skip while backing off,
// try once plus up to maintRetries immediate retries, then record the
// outcome in the backoff state and the consecutive-failure gauge.
func (i *Ingestor) maintain(bo *backoff, streak *atomic.Int64, retried, failed *atomic.Uint64, attempt func() bool) {
	if !bo.due() {
		return
	}
	for r := 0; r <= maintRetries; r++ {
		if r > 0 && retried != nil {
			retried.Add(1)
		}
		if attempt() {
			bo.success()
			streak.Store(0)
			return
		}
	}
	failed.Add(1)
	bo.failure()
	streak.Add(1)
}

// saveCycle is the drainer's periodic snapshot tick: saveAttempt with
// bounded retry, exponential backoff across failed cycles, and the
// state_save_failures / degraded accounting.
func (i *Ingestor) saveCycle() {
	i.maintain(&i.saveBo, &i.saveFailStreak, &i.saveRetries, &i.saveFailures, i.saveAttempt)
}

// compactCycle is the drainer's scheduled self-compaction tick. A journal
// already compacted to one segment (and with nothing buffered or torn) is
// left alone — the cycle is idempotent maintenance, not busywork.
func (i *Ingestor) compactCycle() {
	if i.journalSegs.Load() <= 1 && len(i.journal) == 0 && i.journalTrunc < 0 {
		return
	}
	i.maintain(&i.compactBo, &i.compactFailStreak, nil, &i.compactFails, func() bool {
		_, err := i.compactJournal()
		return err == nil
	})
}

// Compact quiesces the pipeline via the Pause/Resume handshake and
// compacts the receipt journal now: pending receipts are flushed and the
// STB1 chain is rewritten as a single segment, crash-safely (tmp + fsync +
// rename — a crash leaves the old chain or the new segment, never a mix).
// The explicit counterpart of the scheduled CompactInterval tick.
func (i *Ingestor) Compact() (store.CompactStats, error) {
	if i.cfg.JournalPath == "" {
		return store.CompactStats{}, errors.New("stream: no journal configured")
	}
	if err := i.Pause(); err != nil {
		return store.CompactStats{}, err
	}
	defer i.Resume()
	stats, err := i.compactJournal()
	if err != nil {
		i.compactFails.Add(1)
		i.compactFailStreak.Add(1)
	} else {
		i.compactFailStreak.Store(0)
	}
	return stats, err
}

// compactJournal repairs any torn tail, flushes buffered receipts, and
// rewrites the journal chain as one segment. Runs on the drainer (or with
// the drainer parked by Pause).
func (i *Ingestor) compactJournal() (store.CompactStats, error) {
	if err := i.journalRepair(); err != nil {
		return store.CompactStats{}, err
	}
	i.journalFlush()
	if i.journalSegs.Load() == 0 {
		return store.CompactStats{}, nil
	}
	stats, err := store.CompactFile(i.cfg.FS, i.cfg.JournalPath, time.Time{})
	if err != nil {
		return stats, err
	}
	i.journalSegs.Store(1)
	i.compactions.Add(1)
	return stats, nil
}

// openJournal validates an existing journal at startup: it finds the last
// complete-segment boundary, cuts a torn tail left by a crashed append
// (failing loudly on real corruption instead of silently dropping data),
// and seeds the segment gauge.
func (i *Ingestor) openJournal() error {
	path := i.cfg.JournalPath
	probe := store.NewFollower(i.cfg.FS, path)
	if _, err := probe.Poll(); err != nil {
		return fmt.Errorf("stream: journal %s: %w", path, err)
	}
	var size int64
	switch info, err := i.cfg.FS.Stat(path); {
	case err == nil:
		size = info.Size()
	case errors.Is(err, iofs.ErrNotExist):
		return nil // no journal yet; the first flush creates it
	default:
		return err
	}
	if size > probe.Offset() {
		// Trailing bytes past the last complete segment: a torn append
		// from a crashed run polls clean (nil) and is cut; a corrupt
		// segment makes this second poll fail loudly.
		if _, err := probe.Poll(); err != nil {
			return fmt.Errorf("stream: journal %s: %w", path, err)
		}
		if err := i.cfg.FS.Truncate(path, probe.Offset()); err != nil {
			return err
		}
	}
	i.journalSegs.Store(int64(probe.Segments()))
	return nil
}

// journalAdd buffers one accepted receipt for the next journal segment.
// Spend is not part of the serving wire format, so journaled receipts
// carry zero spend; the monitor never reads it. The buffer shares the
// event's basket instead of copying and re-sorting it on the drainer:
// Enqueue's contract freezes baskets, and the HTTP decoder hands over
// normalized ones, so only a raw basket from a library caller costs a
// normalized copy here.
func (i *Ingestor) journalAdd(ev ReceiptEvent) {
	if i.cfg.JournalPath == "" {
		return
	}
	items := ev.Items
	if !items.IsNormalized() {
		items = retail.NewBasket(items)
	}
	i.journal = append(i.journal, store.CustomerReceipt{
		Customer: ev.Customer,
		Receipt:  retail.Receipt{Time: ev.Time, Items: items},
	})
}

// journalFlush appends the buffered receipts as one STB1 segment. On
// failure the receipts stay buffered and the next flush point retries, so
// a transient disk fault costs segment granularity, never receipts. On
// success the buffer is dropped rather than kept for reuse: it holds every
// receipt since the last successful append, which after a run of failed
// appends can be most of the journal.
func (i *Ingestor) journalFlush() {
	if len(i.journal) == 0 {
		return
	}
	if err := i.journalAppend(i.journal); err != nil {
		i.journalErrs.Add(1)
		return
	}
	i.journal = nil
	i.journalSegs.Add(1)
}

// journalRepair cuts the journal back to the last complete-segment
// boundary recorded when an append failed partway.
func (i *Ingestor) journalRepair() error {
	if i.journalTrunc < 0 {
		return nil
	}
	if err := i.cfg.FS.Truncate(i.cfg.JournalPath, i.journalTrunc); err != nil {
		return err
	}
	i.journalTrunc = -1
	return nil
}

// journalAppend writes one segment to the end of the journal. A failed
// write may leave a torn trailing segment, so the pre-append size is
// remembered and the file is truncated back to it before the next append.
func (i *Ingestor) journalAppend(receipts []store.CustomerReceipt) error {
	path := i.cfg.JournalPath
	if err := i.journalRepair(); err != nil {
		return err
	}
	var size int64
	switch info, err := i.cfg.FS.Stat(path); {
	case err == nil:
		size = info.Size()
	case errors.Is(err, iofs.ErrNotExist):
	default:
		return err
	}
	f, err := i.cfg.FS.OpenAppend(path)
	if err != nil {
		return err
	}
	err = store.WriteReceipts(f, receipts)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		i.journalTrunc = size
		return err
	}
	return nil
}

// followPoll is the drainer's follow-mode tick: poll the tailed file for
// complete new segments and feed them through the standard barrier path.
// ErrFileShrank (the file was compacted or replaced underneath the
// follower) triggers an immediate resync followed by a fresh poll, so one
// tick is enough to recover.
func (i *Ingestor) followPoll() {
	i.followPolls.Add(1)
	st, err := i.follower.Poll()
	if err != nil && errors.Is(err, store.ErrFileShrank) {
		i.resyncFollower()
		st, err = i.follower.Poll()
	}
	if err != nil {
		i.followErrs.Add(1)
		i.followFailStreak.Add(1)
		return
	}
	i.followFailStreak.Store(0)
	if st == nil || st.NumReceipts() == 0 {
		return
	}
	i.processFollowBatch(st)
}

// processFollowBatch turns one polled store delta into the event feed:
// receipts in already-closed windows are skipped (exactly the `monitor
// -follow` staleness rule), the rest are visited in time order by
// store.EachByTime and handed to the standard process loop, whose
// month-advance barriers implement the conservative close rule. Equal
// timestamps break ties by customer id, then history position — the same
// total order a sequential replay of the file uses, making poll batching
// invisible in the output. The event slice lives only for the call: a
// catch-up poll can hand over the whole chain at once.
func (i *Ingestor) processFollowBatch(s *store.Store) {
	minK := i.lastClosedK + 1
	evs := make([]ReceiptEvent, 0, s.NumReceipts())
	store.EachByTime(s, func(id retail.CustomerID, r retail.Receipt) bool {
		if !r.Time.Before(i.grid.origin) && i.windowOfMonth(i.monthIndex(r.Time)) >= minK {
			evs = append(evs, ReceiptEvent{Customer: id, Time: r.Time, Items: r.Items})
		}
		return true
	})
	if len(evs) == 0 {
		return
	}
	i.process(evs)
}

// resyncFollower rebuilds the pipeline from the whole (compacted) file: a
// fresh monitor replaces the current one under the swap lock, the follower
// restarts from byte zero, and alerts for windows the old incarnation
// already published are suppressed via suppressK — so the delivered alert
// sequence and the SMN1 state stay byte-identical to a sequential replay
// of the file, straight through the compaction.
func (i *Ingestor) resyncFollower() {
	i.followResync.Add(1)
	fresh, err := NewSharded(i.cfg.Monitor, i.cfg.Shards)
	if err != nil {
		// cfg was validated at construction, so this is unreachable in
		// practice; leave the old monitor in place and let the next tick
		// retry the resync (the follower still reports the shrink).
		i.followErrs.Add(1)
		i.followFailStreak.Add(1)
		return
	}
	if i.lastClosedK > i.suppressK {
		i.suppressK = i.lastClosedK
	}
	i.monMu.Lock()
	old := i.mon
	i.evictedBase += old.Evicted()
	i.mon = fresh
	alerts, _ := old.Close()
	i.monMu.Unlock()
	i.publish(alerts)
	i.follower = store.NewFollower(i.cfg.FS, i.cfg.FollowPath)
	i.maxMonth = math.MinInt / 2
	i.lastClosedK = -1
}

// restartFollowReplay converts a restored-state start into a full-file
// replay: the restored snapshot's watermark proves which windows the
// previous run already closed and published, so the replay suppresses
// those alerts and rebuilds everything else from the file. Runs before the
// drainer starts. (Replaying the file beats resuming from the snapshot
// here: a snapshot taken mid-month holds pending partial baskets that the
// file would re-deliver, and double-counting them would corrupt scores.)
func (i *Ingestor) restartFollowReplay() error {
	fresh, err := NewSharded(i.cfg.Monitor, i.cfg.Shards)
	if err != nil {
		return err
	}
	old := i.mon
	i.mon = fresh
	old.Close()
	i.suppressK = i.lastClosedK
	i.lastClosedK = -1
	i.maxMonth = math.MinInt / 2
	return nil
}
