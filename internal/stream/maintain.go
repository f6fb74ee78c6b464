// Self-healing maintenance for the serving path: the drainer goroutine
// doubles as a supervisor that, between receipt batches, runs a table of
// maintenance tasks — saving snapshots, self-compacting the STB1 receipt
// journal crash-safely, and (in follow mode) tailing a growing snapshot
// file as the ingest source, resyncing automatically when the file is
// compacted underneath it. Every task shares one retry, backoff and
// failure-streak state machine.
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
	// maintenance task marks the pipeline degraded in Health().
	degradedThreshold = 3
	// maintRetries bounds the immediate in-cycle retries of a failed
	// attempt: one cycle makes at most 1+maintRetries attempts before it
	// gives up and backs off.
	maintRetries = 2
	// maxBackoffTicks caps the exponential backoff skip.
	maxBackoffTicks = 32
)

// The rows of the drainer's maintenance table, in Health() reason order.
const (
	taskSave = iota
	taskCompact
	taskFollow
	numTasks
)

// task is one row of the drainer's maintenance table: a periodic job the
// drainer supervises between batches. A cycle makes one attempt plus up to
// maintRetries immediate retries. A failed cycle extends the failure streak
// and skips the next min(2^(streak-1), maxBackoffTicks) ticks; a success
// clears both. Counting ticks instead of reading a clock keeps the
// failure-path schedule a pure function of the tick/outcome sequence.
type task struct {
	// reason is the Health() line, formatted with the failure streak.
	reason  string
	attempt func() error
	tick    *time.Ticker
	// skip is the ticks left to pass over; drainer-owned, like attempt.
	skip int
	// retries counts in-cycle retries, failures the cycles that ran out
	// of them, and streak the consecutive failed cycles behind Health().
	retries  atomic.Uint64
	failures atomic.Uint64
	streak   atomic.Int64
	// cause is the last failed attempt's error, read by Health() off the
	// drainer.
	cause atomic.Pointer[error]
}

// start fills the row and, for a positive period, starts its ticker.
func (t *task) start(reason string, attempt func() error, period time.Duration) {
	t.reason, t.attempt = reason, attempt
	if period > 0 {
		t.tick = time.NewTicker(period)
	}
}

// ticks returns the row's tick channel; nil (never ready) when disabled.
func (t *task) ticks() <-chan time.Time {
	if t.tick == nil {
		return nil
	}
	return t.tick.C
}

func (t *task) stop() {
	if t.tick != nil {
		t.tick.Stop()
	}
}

// cycle runs one tick: nothing while backing off, else an attempt with
// bounded retries, then the outcome is recorded.
func (t *task) cycle() {
	if t.skip > 0 {
		t.skip--
		return
	}
	err := t.attempt()
	for r := 0; err != nil && r < maintRetries; r++ {
		t.retries.Add(1)
		err = t.attempt()
	}
	t.record(err)
}

// record books one cycle's outcome in the streak, counters, backoff and
// cause.
func (t *task) record(err error) {
	if err == nil {
		t.streak.Store(0)
		t.skip = 0
		return
	}
	t.cause.Store(&err)
	t.failures.Add(1)
	t.skip = maxBackoffTicks
	if n := t.streak.Add(1); n <= 5 {
		t.skip = 1 << (n - 1)
	}
}

// IngestorHealth is the pipeline's readiness snapshot: Degraded flips when
// a maintenance task has failed degradedThreshold consecutive cycles, and
// Reasons name the failing tasks. A degraded ingestor still serves queries
// and ingests receipts — degradation means its durability or input loop is
// in trouble, the signal a readiness probe should act on.
type IngestorHealth struct {
	// Degraded reports whether any maintenance task is persistently
	// failing.
	Degraded bool `json:"degraded"`
	// Reasons lists one entry per failing task (saver, compactor,
	// follower); empty when healthy.
	Reasons []string `json:"degraded_reasons,omitempty"`
	// Causes holds each failing task's last error, aligned with Reasons.
	// It stays off the wire: an error can name a file path.
	Causes []error `json:"-"`
}

// Health reports the maintenance tasks' readiness state.
func (i *Ingestor) Health() IngestorHealth {
	var h IngestorHealth
	for k := range i.tasks {
		t := &i.tasks[k]
		if n := t.streak.Load(); n >= degradedThreshold {
			h.Reasons = append(h.Reasons, fmt.Sprintf(t.reason, n))
			h.Causes = append(h.Causes, *t.cause.Load())
		}
	}
	h.Degraded = len(h.Reasons) > 0
	return h
}

// startTasks fills the maintenance table. Disabled rows keep a nil ticker,
// so their drainer arm never fires.
func (i *Ingestor) startTasks() {
	i.tasks[taskSave].start("saver failing: %d consecutive save cycles failed", i.saveAttempt, i.cfg.SaveInterval)
	i.tasks[taskCompact].start("compactor backing off: %d consecutive compactions failed", i.compactAttempt, i.cfg.CompactInterval)
	i.tasks[taskFollow].start("follower stalled: %d consecutive poll cycles failed", i.followPoll, i.cfg.FollowInterval)
}

// compactAttempt is the compactor row's attempt. A journal already
// compacted to one segment (and with nothing buffered or torn) has nothing
// to do, which counts as success: the cycle is idempotent maintenance, not
// busywork.
func (i *Ingestor) compactAttempt() error {
	if i.journalSegs.Load() <= 1 && len(i.journal) == 0 && i.journalTrunc < 0 {
		return nil
	}
	_, err := i.compactJournal()
	return err
}

// Compact quiesces the pipeline via the Pause/Resume handshake and
// compacts the receipt journal now: pending receipts are flushed and the
// STB1 chain is rewritten as a single segment, crash-safely (tmp + fsync +
// rename — a crash leaves the old chain or the new segment, never a mix).
// The explicit counterpart of the scheduled CompactInterval tick: one
// attempt, recorded through the compactor row.
func (i *Ingestor) Compact() (store.CompactStats, error) {
	if i.cfg.JournalPath == "" {
		return store.CompactStats{}, errors.New("stream: no journal configured")
	}
	if err := i.Pause(); err != nil {
		return store.CompactStats{}, err
	}
	defer i.Resume()
	stats, err := i.compactJournal()
	i.tasks[taskCompact].record(err)
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

// followPoll is the follower row's attempt: poll the tailed file for
// complete new segments and feed them through the per-receipt step.
// ErrFileShrank (the file was compacted or replaced underneath the
// follower) triggers an immediate replay from byte zero followed by a
// fresh poll, so one attempt is enough to recover.
func (i *Ingestor) followPoll() error {
	i.followPolls.Add(1)
	st, err := i.follower.Poll()
	if errors.Is(err, store.ErrFileShrank) {
		i.followResync.Add(1)
		if err = i.replayFollowed(); err == nil {
			st, err = i.follower.Poll()
		}
	}
	if err != nil {
		i.followErrs.Add(1)
		return err
	}
	if st != nil {
		i.processFollowBatch(st)
	}
	return nil
}

// processFollowBatch feeds one polled store delta to the per-receipt step:
// receipts before the grid origin or in windows already closed when the
// poll began are skipped and counted in FollowSkipped, the rest are
// visited in (month, customer id, history position) order by
// store.EachByMonth, and the step's month-advance barriers implement the
// conservative close rule. Months ascend and each customer's receipts keep
// their history order, so the barriers fall where a sequential replay of
// the file in time order puts them, and every window holds the same
// baskets: the order within a month reaches no output, and poll batching
// stays invisible. Like a queued batch, the poll counts as one batch once
// it delivered a fresh receipt, and an ingest error ends it.
func (i *Ingestor) processFollowBatch(s *store.Store) {
	// A receipt is fresh from the first month of the first open window on.
	// A follower polls only with lastClosedK >= -1, so that month is never
	// before the grid origin and the one test skips both kinds.
	grid := i.cfg.Monitor.Grid
	start, _ := grid.Bounds(i.lastClosedK + 1)
	minMonth := grid.MonthIndex(start)
	fresh, ok := false, true
	var skipped uint64
	store.EachByMonth(s, grid.MonthIndex, func(id retail.CustomerID, r retail.Receipt, m int) bool {
		if m < minMonth {
			skipped++
			return true
		}
		fresh = true
		ok = i.step(ReceiptEvent{Customer: id, Time: r.Time, Items: r.Items}, m)
		return ok
	})
	if skipped > 0 {
		i.followSkips.Add(skipped)
	}
	if fresh && ok {
		i.batches.Add(1)
	}
}

// replayFollowed rewinds the pipeline to replay the followed file from byte
// zero after the file shrank: a fresh monitor replaces the current one
// under the swap lock (carrying its eviction count forward), and
// rewindFollow restarts the follower. The delivered alert sequence and the
// SMN1 state stay byte-identical to a sequential replay of the file.
func (i *Ingestor) replayFollowed() error {
	fresh, err := NewSharded(i.cfg.Monitor, i.cfg.Shards)
	if err != nil {
		return err
	}
	i.rewindFollow()
	i.monMu.Lock()
	old := i.mon
	i.evictedBase += old.Evicted()
	i.mon = fresh
	alerts, _ := old.Close()
	i.monMu.Unlock()
	i.publish(alerts)
	return nil
}

// rewindFollow restarts the follower at offset zero, on a resync and on a
// restart with restored state (before the drainer starts). The watermark
// proves which windows an earlier monitor already closed and published, so
// suppressK drops the replay's alerts for them. (Replaying the file beats
// resuming from a restored snapshot: one taken mid-month holds pending
// partial baskets that the file would re-deliver, and double-counting them
// would corrupt scores.)
func (i *Ingestor) rewindFollow() {
	if i.lastClosedK > i.suppressK {
		i.suppressK = i.lastClosedK
	}
	i.follower = store.NewFollower(i.cfg.FS, i.cfg.FollowPath)
	i.maxMonth = math.MinInt / 2
	i.lastClosedK = -1
}
