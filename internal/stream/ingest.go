// Serving-path ingestion: an Ingestor puts a bounded queue with an explicit
// overflow policy in front of a ShardedMonitor, so a serving layer (HTTP
// handlers, replication appliers, …) can feed the monitor from many
// producers without unbounded buffering when a slow shard stalls the feed.
//
// One drainer goroutine owns the queue→monitor hand-off. It preserves the
// queue's FIFO order, advances the window watermark as receipt months
// advance (closing every window that provably ended, exactly the
// `attrition monitor -state` rule: a stream can never prove the month of
// its newest receipt complete), and appends every barrier's alerts to an
// in-memory sequence-numbered log that long-poll and SSE consumers read.
// Because barriers fire at deterministic positions in the receipt stream —
// not on wall-clock — the alert log contents are a pure function of the
// accepted receipt sequence; the equivalence with a sequential Monitor
// replay is differential-tested in internal/serve.
//
// The optional flush ticker and maintenance tasks are wall-clock driven by
// nature (alert-delivery liveness, crash-recovery snapshots); they never
// change which alerts exist or what the SMN1 state is, only when both
// become visible.
package stream

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gautrais/stability/internal/faultfs"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/store"
)

// OverflowPolicy selects what Ingestor.Enqueue does when the bounded
// ingestion queue is full — the explicit backpressure story for the
// serving path.
type OverflowPolicy int

const (
	// PolicyBlock blocks the producer until queue space frees up. Lossless;
	// a stalled shard propagates pressure all the way to producers.
	PolicyBlock OverflowPolicy = iota
	// PolicyShed drops the offered batch and counts it. Producers never
	// stall; the monitor sees a gap (shed receipts are gone for good).
	PolicyShed
	// PolicyReject fails fast with ErrQueueFull so the producer can retry
	// later — the HTTP layer maps it to 429 + Retry-After.
	PolicyReject
)

// String returns the policy's flag spelling (block, shed, reject).
func (p OverflowPolicy) String() string {
	switch p {
	case PolicyBlock:
		return "block"
	case PolicyShed:
		return "shed"
	case PolicyReject:
		return "reject"
	default:
		return fmt.Sprintf("OverflowPolicy(%d)", int(p))
	}
}

// ParseOverflowPolicy parses a policy's flag spelling.
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	switch s {
	case "block":
		return PolicyBlock, nil
	case "shed":
		return PolicyShed, nil
	case "reject":
		return PolicyReject, nil
	default:
		return 0, fmt.Errorf("stream: unknown overflow policy %q (want block, shed or reject)", s)
	}
}

// ErrQueueFull is returned by Enqueue under PolicyReject when the
// ingestion queue has no room for the offered batch.
var ErrQueueFull = errors.New("stream: ingestion queue full")

// ErrIngestorClosed is returned by operations on an Ingestor after Close.
var ErrIngestorClosed = errors.New("stream: ingestor is closed")

// ErrFollowing is returned by Enqueue when the ingestor is in follow mode:
// a follow-mode pipeline is fed exclusively by tailing the snapshot file,
// so accepting side-channel batches would break the byte-equality with a
// replay of that file.
var ErrFollowing = errors.New("stream: ingestor is file-driven (follow mode)")

// ReceiptEvent is one receipt offered to an Ingestor.
type ReceiptEvent struct {
	// Customer identifies the purchasing customer.
	Customer retail.CustomerID
	// Time is the receipt timestamp; it must not precede the grid origin.
	Time time.Time
	// Items is the basket; it is normalized on ingestion if needed.
	Items retail.Basket
}

// SeqAlert is an Alert stamped with its position in the Ingestor's alert
// log. Sequence numbers start at 1 and never repeat; consumers resume
// delivery by passing the last sequence they saw back to AlertsSince.
type SeqAlert struct {
	// Seq is the alert's 1-based position in the delivery log.
	Seq uint64
	Alert
}

// IngestorConfig parameterizes an Ingestor.
type IngestorConfig struct {
	// Monitor configures the wrapped sharded monitor (grid, model, β,
	// warm-up) exactly as for NewSharded.
	Monitor Config
	// Shards is the shard count; <= 0 means GOMAXPROCS. Operational knob:
	// results are identical at every shard count.
	Shards int
	// QueueBatches bounds the ingestion queue, counted in enqueued batches;
	// <= 0 means 64. When the queue is full, Policy decides.
	QueueBatches int
	// Policy is the queue-overflow policy (default PolicyBlock).
	Policy OverflowPolicy
	// AlertBuffer caps the in-memory alert log; older alerts are dropped
	// once the log exceeds it. <= 0 means 65536. Consumers that fall more
	// than AlertBuffer alerts behind observe a gap (AlertsSince reports the
	// oldest retained sequence).
	AlertBuffer int
	// StatePath, when non-empty, enables persistence: New restores from
	// the file when it exists, Close writes it atomically, and SaveInterval
	// snapshots it periodically in between.
	StatePath string
	// SaveInterval is the background snapshot period; 0 disables the
	// periodic saver (Close still persists). Ignored when StatePath is "".
	SaveInterval time.Duration
	// FlushInterval is the period of liveness Flush barriers, which deliver
	// ingest-time alerts buffered inside shards to the alert log between
	// window closes. 0 disables them. For a feed whose months ascend
	// every alert is raised at a window-close barrier, so flushes change
	// nothing; for out-of-order feeds they only affect when alerts become
	// visible, never which alerts exist.
	FlushInterval time.Duration
	// FollowPath, when non-empty, switches the ingestor to file-driven
	// ingestion: instead of accepting Enqueue batches (Enqueue returns
	// ErrFollowing), the drainer tails the STB1 segment chain at FollowPath
	// through a store.Follower, polling at start and every FollowInterval
	// after. Torn tails are retried; a shrunken file (compacted or
	// replaced underneath the follower) triggers an automatic resync: the
	// monitor is rebuilt from the whole file and alerts for windows
	// already published are suppressed, so the delivered alert sequence
	// and SMN1 state stay byte-identical to a sequential Monitor replay of
	// the file. A restored StatePath is resumed the same way, by replaying
	// the file from byte zero; until the replay has closed every window
	// the restored state had, saves leave the state file as it is.
	FollowPath string
	// FollowInterval is the follow-mode poll period; <= 0 means 500ms.
	// Ignored when FollowPath is "". Poll timing never affects which
	// alerts exist — only when they become visible.
	FollowInterval time.Duration
	// JournalPath, when non-empty, appends every accepted receipt as STB1
	// delta segments to the given file — a replayable record of exactly
	// what the monitor scored. The journal grows one segment per close
	// barrier (plus one per periodic save and on Close); CompactInterval
	// maintenance ticks rewrite the chain to a single segment crash-safely.
	// Mutually exclusive with FollowPath (the followed file already is the
	// journal).
	JournalPath string
	// CompactInterval is the period of journal self-compaction maintenance
	// ticks; 0 disables them (Compact can still be called explicitly).
	// Requires JournalPath.
	CompactInterval time.Duration
	// FS, when non-nil, routes state-file I/O (restore, background and
	// final saves, the journal, the followed file) through the given
	// filesystem — the fault-injection seam for crash-recovery tests. nil
	// means the real filesystem.
	FS faultfs.FS
}

func (c IngestorConfig) withDefaults() IngestorConfig {
	if c.QueueBatches <= 0 {
		c.QueueBatches = 64
	}
	if c.AlertBuffer <= 0 {
		c.AlertBuffer = 65536
	}
	if c.StatePath == "" {
		c.SaveInterval = 0
	}
	if c.FollowPath == "" {
		c.FollowInterval = 0
	} else if c.FollowInterval <= 0 {
		c.FollowInterval = 500 * time.Millisecond
	}
	if c.FS == nil {
		c.FS = faultfs.OS{}
	}
	return c
}

// Validate reports configuration errors.
func (c IngestorConfig) Validate() error {
	if err := c.Monitor.Validate(); err != nil {
		return err
	}
	switch c.Policy {
	case PolicyBlock, PolicyShed, PolicyReject:
	default:
		return fmt.Errorf("stream: unknown overflow policy %d", int(c.Policy))
	}
	if c.SaveInterval < 0 || c.FlushInterval < 0 || c.FollowInterval < 0 || c.CompactInterval < 0 {
		return errors.New("stream: negative ticker interval")
	}
	if c.FollowPath != "" && c.JournalPath != "" {
		return errors.New("stream: follow and journal are mutually exclusive (the followed file already is the receipt journal)")
	}
	if c.CompactInterval > 0 && c.JournalPath == "" {
		return errors.New("stream: compact interval requires a journal path")
	}
	return nil
}

// IngestorMetrics is a point-in-time snapshot of an Ingestor's counters.
// All counters are cumulative since New (restore does not carry counters
// over — they describe this process, the SMN1 state describes the model).
type IngestorMetrics struct {
	// ReceiptsIngested counts receipts handed to the monitor.
	ReceiptsIngested uint64 `json:"receipts_ingested"`
	// BatchesIngested counts batches drained from the queue.
	BatchesIngested uint64 `json:"batches_ingested"`
	// ReceiptsShed counts receipts dropped by PolicyShed.
	ReceiptsShed uint64 `json:"receipts_shed"`
	// ReceiptsRejected counts receipts refused by PolicyReject.
	ReceiptsRejected uint64 `json:"receipts_rejected"`
	// IngestErrors counts barriers that surfaced an ingest error (stale
	// receipts are the usual cause); each barrier reports at most one.
	IngestErrors uint64 `json:"ingest_errors"`
	// AlertsEmitted counts alerts appended to the delivery log.
	AlertsEmitted uint64 `json:"alerts_emitted"`
	// QueueDepth is the current number of queued batches.
	QueueDepth int `json:"queue_depth"`
	// QueueCapacity is the queue bound, in batches.
	QueueCapacity int `json:"queue_capacity"`
	// Watermark is the lowest window index not yet closed; receipts for
	// earlier windows are stale.
	Watermark int `json:"watermark"`
	// Saves and SaveErrors count background + final snapshot attempts.
	// Every attempt increments Saves; every failed attempt (including
	// in-cycle retries) increments SaveErrors.
	Saves      uint64 `json:"saves"`
	SaveErrors uint64 `json:"save_errors"`
	// SaveRetries counts in-cycle retries of failed snapshot writes.
	SaveRetries uint64 `json:"save_retries"`
	// StateSaveFailures counts save cycles that exhausted every retry —
	// the operator-facing "the snapshot on disk is going stale" signal.
	// Consecutive failures put the saver in backoff and, past the degraded
	// threshold, flip Health().Degraded.
	StateSaveFailures uint64 `json:"state_save_failures"`
	// Compactions and CompactionFailures count journal self-compaction
	// cycles (zero forever when no JournalPath/CompactInterval is set).
	Compactions        uint64 `json:"compactions"`
	CompactionFailures uint64 `json:"compaction_failures"`
	// JournalErrors counts failed journal segment appends; failed appends
	// are retried at the next flush point, so the journal heals itself
	// unless the disk fault persists.
	JournalErrors uint64 `json:"journal_errors"`
	// JournalSegments is the journal's STB1 segment count (1 right after a
	// compaction; 0 when journaling is off or the journal is empty).
	JournalSegments int `json:"journal_segments"`
	// FollowPolls/FollowErrors/FollowResyncs count follow-mode tail polls,
	// failed polls, and full resyncs after the followed file shrank.
	FollowPolls   uint64 `json:"follow_polls"`
	FollowErrors  uint64 `json:"follow_errors"`
	FollowResyncs uint64 `json:"follow_resyncs"`
	// FollowSkipped counts tailed receipts dropped because they precede the
	// grid origin or fall in a window already closed when their poll began
	// (an out-of-contract append).
	FollowSkipped uint64 `json:"follow_skipped"`
	// CustomersEvicted counts customers dropped at the retention horizon
	// (0 forever when no horizon is configured).
	CustomersEvicted uint64 `json:"customers_evicted"`
	// CustomersRetained is the number of customers currently tracked — the
	// gauge that shows the memory bound holding.
	CustomersRetained int `json:"customers_retained"`
	// Degraded mirrors Health().Degraded: a maintenance task (saver,
	// compactor, follower) has failed degradedThreshold cycles in a row.
	Degraded bool `json:"degraded"`
}

// Ingestor is the serving-path feed: a bounded batch queue with an
// explicit overflow policy in front of a ShardedMonitor, drained by a
// single goroutine that advances the window watermark and publishes every
// barrier's alerts to a sequence-numbered log.
//
// Enqueue is safe for concurrent use. Per-customer receipt order must be
// preserved by producers across Enqueue calls (the Monitor contract);
// receipts within one batch are ingested in slice order. Stop producers
// before Close, exactly as for ShardedMonitor.
type Ingestor struct {
	cfg IngestorConfig

	// monMu guards mon and evictedBase against the follower-resync swap
	// and against Close: the drainer replaces a resyncing monitor, and
	// Close stops the monitor's shards, under the write lock, while
	// concurrent readers (Stability, Stabilities, Customers, Metrics,
	// WriteSnapshot) hold the read lock for the duration of their call. So
	// no reader can touch a monitor whose shard goroutines have been
	// stopped, or find a monitor open that stops before its call reaches
	// the shards. Outside follow mode and Close the lock is never contended.
	monMu sync.RWMutex
	mon   *ShardedMonitor
	// evictedBase carries eviction counts across resync monitor swaps.
	evictedBase uint64

	queue chan []ReceiptEvent
	stop  chan struct{}
	// pauseReq hands the drainer a resume channel to park on; see Pause.
	pauseReq  chan chan struct{}
	drainDone chan struct{}
	flushTick *time.Ticker

	// Drainer-owned watermark state: maxMonth is the largest receipt month
	// seen, lastClosedK the highest barrier-closed window.
	maxMonth    int
	lastClosedK int
	// suppressK drops alerts for windows at or below it from the delivery
	// log: after a follow-mode resync (or restart) the replay re-raises
	// alerts the previous incarnation already delivered. math.MinInt/2
	// disables suppression.
	suppressK int

	// tasks is the maintenance table (saver, compactor, follower), run by
	// the drainer; see task.
	tasks [numTasks]task
	// Drainer-owned maintenance state: the follower and the journal
	// append buffer.
	follower *store.Follower
	// journal holds the receipts accepted since the last successful
	// journal append, in arrival order.
	journal []store.CustomerReceipt
	// journalTrunc, when >= 0, is the size the journal must be cut back to
	// before the next append: a failed append may have left a torn segment.
	journalTrunc int64

	receipts     atomic.Uint64
	batches      atomic.Uint64
	shed         atomic.Uint64
	rejected     atomic.Uint64
	ingestErrs   atomic.Uint64
	saves        atomic.Uint64
	saveErrs     atomic.Uint64
	compactions  atomic.Uint64
	journalErrs  atomic.Uint64
	journalSegs  atomic.Int64
	followPolls  atomic.Uint64
	followErrs   atomic.Uint64
	followResync atomic.Uint64
	followSkips  atomic.Uint64
	watermark    atomic.Int64
	closed       atomic.Bool

	// pmu guards the pause/resume handshake.
	pmu    sync.Mutex
	resume chan struct{}

	// mu guards the alert log ring.
	mu      sync.Mutex
	log     []SeqAlert
	nextSeq uint64
	changed chan struct{}
}

// NewIngestor validates cfg, restores SMN1 state from cfg.StatePath when
// the file exists, and starts the drainer (and any configured tickers and
// maintenance tasks).
func NewIngestor(cfg IngestorConfig) (*Ingestor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	i := &Ingestor{
		cfg:          cfg,
		queue:        make(chan []ReceiptEvent, cfg.QueueBatches),
		stop:         make(chan struct{}),
		pauseReq:     make(chan chan struct{}),
		drainDone:    make(chan struct{}),
		maxMonth:     math.MinInt / 2,
		lastClosedK:  -1,
		suppressK:    math.MinInt / 2,
		journalTrunc: -1,
		nextSeq:      1,
		changed:      make(chan struct{}),
	}
	restored, err := i.openMonitor()
	if err != nil {
		return nil, err
	}
	if cfg.FollowPath != "" {
		i.follower = store.NewFollower(cfg.FS, cfg.FollowPath)
	}
	if restored {
		if cfg.FollowPath == "" {
			// The restore barrier: the snapshot may have been taken under a
			// longer (or no) horizon, and closing through the restored
			// watermark evicts its expired customers without waiting for
			// feed traffic. Every open window lies past lastClosedK, so the
			// barrier scores none of them.
			i.closeBarrier(i.lastClosedK)
		} else {
			i.rewindFollow()
		}
	}
	if cfg.JournalPath != "" {
		if err := i.openJournal(); err != nil {
			i.mon.Close()
			return nil, err
		}
	}
	wm := i.lastClosedK
	if i.suppressK > wm {
		wm = i.suppressK
	}
	i.watermark.Store(int64(wm + 1))
	var flushC <-chan time.Time
	if cfg.FlushInterval > 0 {
		i.flushTick = time.NewTicker(cfg.FlushInterval)
		flushC = i.flushTick.C
	}
	i.startTasks()
	go i.drain(flushC)
	return i, nil
}

// openMonitor starts the monitor, restoring it from cfg.StatePath when the
// file exists, and puts lastClosedK just below the restored watermark. A
// follow-mode restart replays the followed file into a fresh monitor (see
// rewindFollow), so there every customer of the state is decoded and
// checked as a restore checks it, but only the watermark is kept.
func (i *Ingestor) openMonitor() (restored bool, err error) {
	cfg := i.cfg
	if cfg.StatePath != "" {
		f, err := cfg.FS.Open(cfg.StatePath)
		switch {
		case err == nil:
			defer f.Close()
			k, ok := 0, false
			if cfg.FollowPath == "" {
				i.mon, err = ReadShardedMonitorSnapshot(f, cfg.Monitor, cfg.Shards)
				if err == nil {
					k, ok = i.mon.Watermark()
				}
			} else {
				k, ok, err = readSnapshotWatermark(f, cfg.Monitor)
				if err == nil {
					i.mon, err = NewSharded(cfg.Monitor, cfg.Shards)
				}
			}
			if err != nil {
				return false, fmt.Errorf("stream: restore %s: %w", cfg.StatePath, err)
			}
			if ok {
				i.lastClosedK = k - 1
			}
			return true, nil
		case !errors.Is(err, iofs.ErrNotExist):
			return false, err
		}
	}
	i.mon, err = NewSharded(cfg.Monitor, cfg.Shards)
	return false, err
}

// Enqueue offers one batch for ingestion. The batch is accepted (queued,
// true), shed under PolicyShed (false, nil), or refused under PolicyReject
// (false, ErrQueueFull). Under PolicyBlock the call waits for queue space.
// The batch slice and its baskets must not be mutated after Enqueue
// returns true.
func (i *Ingestor) Enqueue(batch []ReceiptEvent) (bool, error) {
	if len(batch) == 0 {
		return true, nil
	}
	if i.cfg.FollowPath != "" {
		return false, ErrFollowing
	}
	if i.closed.Load() {
		return false, ErrIngestorClosed
	}
	if i.cfg.Policy == PolicyBlock {
		select {
		case i.queue <- batch:
			return true, nil
		case <-i.stop:
			return false, ErrIngestorClosed
		}
	}
	select {
	case i.queue <- batch:
		return true, nil
	case <-i.stop:
		return false, ErrIngestorClosed
	default:
	}
	if i.cfg.Policy == PolicyShed {
		i.shed.Add(uint64(len(batch)))
		return false, nil
	}
	i.rejected.Add(uint64(len(batch)))
	return false, ErrQueueFull
}

// drain is the single queue consumer: it feeds the monitor in queue order,
// fires watermark barriers as receipt months advance, and services pause
// requests, flush ticks and maintenance-task ticks. nil ticker channels
// block forever, so disabled tickers cost nothing.
func (i *Ingestor) drain(flushC <-chan time.Time) {
	defer close(i.drainDone)
	save, compact, follow := &i.tasks[taskSave], &i.tasks[taskCompact], &i.tasks[taskFollow]
	saveC, compactC, followC := save.ticks(), compact.ticks(), follow.ticks()
	if followC != nil {
		// Follow mode polls once before anything else: catch-up starts
		// without waiting a FollowInterval, and a restart's replay runs
		// before any save or Close can persist its still-empty monitor.
		follow.cycle()
	}
	for {
		select {
		case resume := <-i.pauseReq:
			<-resume
		case <-flushC:
			i.flushBarrier()
		case <-saveC:
			save.cycle()
		case <-compactC:
			compact.cycle()
		case <-followC:
			follow.cycle()
		case batch := <-i.queue:
			i.process(batch)
		case <-i.stop:
			// Drain what made it into the queue before the stop, then exit;
			// Close runs the final barrier and save.
			for {
				select {
				case batch := <-i.queue:
					i.process(batch)
				default:
					return
				}
			}
		}
	}
}

// process ingests one queued batch through the per-receipt step; an
// ingest error ends the batch uncounted.
func (i *Ingestor) process(batch []ReceiptEvent) {
	for _, ev := range batch {
		if !i.step(ev, i.cfg.Monitor.Grid.MonthIndex(ev.Time)) {
			return
		}
	}
	i.batches.Add(1)
}

// step ingests one receipt whose month index is m. When m advances past
// every month seen so far, every window that ended at or before that
// month's start is provably complete — the conservative `monitor -state`
// rule — so a CloseThrough barrier fires before the receipt is ingested.
// It reports false when the monitor refused the receipt.
func (i *Ingestor) step(ev ReceiptEvent, m int) bool {
	if m > i.maxMonth {
		i.maxMonth = m
		// closeK is the last window ending at or before the start of
		// month m. Guarding on lastClosedK makes the barrier positions a
		// pure function of the receipt sequence.
		if closeK := i.cfg.Monitor.Grid.Index(ev.Time) - 1; closeK > i.lastClosedK {
			i.closeBarrier(closeK)
		}
	}
	if err := i.mon.Ingest(ev.Customer, ev.Time, ev.Items); err != nil {
		// Only ErrClosed is synchronous, and Close stops this drainer
		// first, so this is unreachable in practice; count it anyway.
		i.ingestErrs.Add(1)
		return false
	}
	i.journalAdd(ev)
	i.receipts.Add(1)
	return true
}

// closeBarrier force-closes windows through k and publishes the alerts.
// The published watermark only moves forward: during a follow-mode resync
// replay lastClosedK rewinds internally, but windows the previous monitor
// incarnation closed stay closed as far as consumers are concerned.
func (i *Ingestor) closeBarrier(k int) {
	alerts, err := i.mon.CloseThrough(k)
	if err != nil {
		i.ingestErrs.Add(1)
	}
	i.lastClosedK = k
	if wm := int64(k + 1); wm > i.watermark.Load() {
		i.watermark.Store(wm)
	}
	i.publish(alerts)
	// A close barrier is a deterministic position in the receipt sequence —
	// the right moment to persist the journal segment covering everything
	// up to it.
	i.journalFlush()
}

// flushBarrier delivers shard-buffered ingest alerts without closing
// windows.
func (i *Ingestor) flushBarrier() {
	alerts, err := i.mon.Flush()
	if err != nil {
		i.ingestErrs.Add(1)
	}
	i.publish(alerts)
}

// publish appends alerts to the sequence-numbered log, trims it to the
// configured buffer, and wakes waiting consumers. Alerts for windows at or
// below suppressK are dropped: a follow-mode resync replay re-raises
// alerts the previous monitor incarnation already delivered, and delivering
// them twice would break the byte-equality with an uninterrupted run.
func (i *Ingestor) publish(alerts []Alert) {
	if i.suppressK > math.MinInt/2 && len(alerts) > 0 {
		kept := alerts[:0]
		for _, a := range alerts {
			if a.GridIndex > i.suppressK {
				kept = append(kept, a)
			}
		}
		alerts = kept
	}
	if len(alerts) == 0 {
		return
	}
	i.mu.Lock()
	for _, a := range alerts {
		i.log = append(i.log, SeqAlert{Seq: i.nextSeq, Alert: a})
		i.nextSeq++
	}
	if excess := len(i.log) - i.cfg.AlertBuffer; excess > 0 {
		i.log = append(i.log[:0], i.log[excess:]...)
	}
	close(i.changed)
	i.changed = make(chan struct{})
	i.mu.Unlock()
}

// AlertsSince returns up to max alerts with sequence numbers strictly
// greater than after, in delivery order. oldest is the lowest sequence
// still retained (consumers detect a gap when after+1 < oldest), and wait
// is a channel closed at the next publication — select on it to long-poll.
// max <= 0 means no limit.
func (i *Ingestor) AlertsSince(after uint64, max int) (batch []SeqAlert, oldest uint64, wait <-chan struct{}) {
	i.mu.Lock()
	defer i.mu.Unlock()
	oldest = i.nextSeq
	if len(i.log) > 0 {
		oldest = i.log[0].Seq
	}
	start := len(i.log)
	if after < oldest {
		start = 0
	} else if d := after - oldest + 1; d < uint64(len(i.log)) {
		// after >= oldest >= 1, so neither subtraction nor the +1 can wrap;
		// clamping before the int conversion keeps huge after values (e.g. a
		// forged Last-Event-ID) from producing a negative slice index.
		start = int(d)
	}
	if start < len(i.log) {
		n := len(i.log) - start
		if max > 0 && n > max {
			n = max
		}
		batch = make([]SeqAlert, n)
		copy(batch, i.log[start:start+n])
	}
	return batch, oldest, i.changed
}

// Pause parks the drainer until Resume: queued batches stay queued, so the
// backpressure policies act deterministically (tests and operational
// quiesce both rely on this). Pause returns once the drainer is parked; a
// second Pause before Resume is an error.
func (i *Ingestor) Pause() error {
	i.pmu.Lock()
	defer i.pmu.Unlock()
	if i.resume != nil {
		return errors.New("stream: ingestor already paused")
	}
	r := make(chan struct{})
	select {
	case i.pauseReq <- r:
		i.resume = r
		return nil
	case <-i.stop:
		return ErrIngestorClosed
	}
}

// Resume releases a paused drainer. Resuming a running ingestor is a
// no-op.
func (i *Ingestor) Resume() {
	i.pmu.Lock()
	defer i.pmu.Unlock()
	if i.resume != nil {
		close(i.resume)
		i.resume = nil
	}
}

// Stability returns the customer's last scored stability, synchronized
// with the owning shard (it reflects every receipt already handed to the
// monitor, not receipts still queued).
func (i *Ingestor) Stability(id retail.CustomerID) (value float64, gridIndex int, ok bool) {
	i.monMu.RLock()
	defer i.monMu.RUnlock()
	return i.mon.Stability(id)
}

// Stabilities answers a batch of stability queries under one monitor-lock
// acquisition, fanning per-shard inside the monitor — where N Stability
// calls pay N lock round trips, a batch pays one. Row i is exactly what
// Stability(ids[i]) would return; dst is reused as in
// ShardedMonitor.Stabilities.
func (i *Ingestor) Stabilities(ids []retail.CustomerID, dst []CustomerStability) []CustomerStability {
	i.monMu.RLock()
	defer i.monMu.RUnlock()
	return i.mon.Stabilities(ids, dst)
}

// Customers returns the number of customers tracked across all shards.
func (i *Ingestor) Customers() int {
	i.monMu.RLock()
	defer i.monMu.RUnlock()
	return i.mon.Customers()
}

// Watermark returns the lowest window index not yet closed by a barrier;
// receipts for earlier windows are stale and should be refused upstream.
func (i *Ingestor) Watermark() int { return int(i.watermark.Load()) }

// Metrics returns a snapshot of the ingestion counters.
func (i *Ingestor) Metrics() IngestorMetrics {
	i.monMu.RLock()
	evicted, retained := i.mon.counts()
	evicted += i.evictedBase
	i.monMu.RUnlock()
	return IngestorMetrics{
		ReceiptsIngested:   i.receipts.Load(),
		BatchesIngested:    i.batches.Load(),
		ReceiptsShed:       i.shed.Load(),
		ReceiptsRejected:   i.rejected.Load(),
		IngestErrors:       i.ingestErrs.Load(),
		AlertsEmitted:      i.alertsEmitted(),
		QueueDepth:         len(i.queue),
		QueueCapacity:      cap(i.queue),
		Watermark:          int(i.watermark.Load()),
		Saves:              i.saves.Load(),
		SaveErrors:         i.saveErrs.Load(),
		SaveRetries:        i.tasks[taskSave].retries.Load(),
		StateSaveFailures:  i.tasks[taskSave].failures.Load(),
		Compactions:        i.compactions.Load(),
		CompactionFailures: i.tasks[taskCompact].failures.Load(),
		JournalErrors:      i.journalErrs.Load(),
		JournalSegments:    int(i.journalSegs.Load()),
		FollowPolls:        i.followPolls.Load(),
		FollowErrors:       i.followErrs.Load(),
		FollowResyncs:      i.followResync.Load(),
		FollowSkipped:      i.followSkips.Load(),
		CustomersEvicted:   evicted,
		CustomersRetained:  retained,
		Degraded:           i.Health().Degraded,
	}
}

func (i *Ingestor) alertsEmitted() uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.nextSeq - 1
}

// saveAttempt is the saver row's attempt: flush shard-buffered alerts to
// the log (so a crash after the save loses only alerts never delivered to
// any consumer), pending journal receipts to disk, then write the SMN1
// state atomically (tmp + fsync + rename).
func (i *Ingestor) saveAttempt() error {
	i.flushBarrier()
	i.journalFlush()
	return i.saveState()
}

// saveState writes the state file and counts the attempt once it has
// finished, so a reader that sees Saves above SaveErrors finds a state
// file on disk. A follow replay that has not yet closed the windows an
// earlier monitor published (its poll failed, or the file is missing) is
// not written: its snapshot would move the state file's watermark back,
// and the next restart would publish those windows' alerts again.
func (i *Ingestor) saveState() error {
	if i.lastClosedK < i.suppressK {
		return nil
	}
	err := faultfs.WriteAtomic(i.cfg.FS, i.cfg.StatePath, i.mon.WriteSnapshot)
	if err != nil {
		i.saveErrs.Add(1)
	}
	i.saves.Add(1)
	return err
}

// WriteSnapshot streams the monitor's SMN1 state, usable before and after
// Close. Windows past the watermark stay open in the snapshot — their
// pending baskets persist — so a restored ingestor resumes losslessly.
func (i *Ingestor) WriteSnapshot(w io.Writer) error {
	i.monMu.RLock()
	defer i.monMu.RUnlock()
	return i.mon.WriteSnapshot(w)
}

// Close drains the queue, delivers every shard-buffered alert, persists
// the final SMN1 snapshot when StatePath is set, and stops the monitor.
// Close never force-closes windows past the watermark: more data may
// follow in the newest month, so pending windows persist open — restoring
// from StatePath and continuing the feed yields byte-identical alerts and
// state to an uninterrupted run. Stop producers first.
func (i *Ingestor) Close() error {
	if i.closed.Swap(true) {
		return ErrIngestorClosed
	}
	if i.flushTick != nil {
		i.flushTick.Stop()
	}
	for k := range i.tasks {
		i.tasks[k].stop()
	}
	i.Resume()
	close(i.stop)
	<-i.drainDone
	i.monMu.Lock()
	alerts, err := i.mon.Close()
	i.monMu.Unlock()
	if err != nil {
		i.ingestErrs.Add(1)
	}
	i.publish(alerts)
	i.journalFlush()
	if i.cfg.StatePath != "" {
		return i.saveState()
	}
	return nil
}
