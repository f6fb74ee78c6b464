// Sharded ingestion: a ShardedMonitor fans receipts across N single-threaded
// shard Monitors by customer hash, so the online path scales with cores while
// keeping every guarantee of the sequential monitor. Each customer maps to
// exactly one shard (FNV-1a over the id), each shard is driven by its own
// goroutine over a bounded FIFO channel, so per-customer receipt order is
// preserved and per-customer results are bit-identical to the single-threaded
// Monitor at every shard count.
//
// Alerts cannot be returned synchronously from an asynchronous Ingest, so they
// accumulate per shard and are delivered at barriers — Flush, CloseThrough,
// Close — merged in a canonical order (grid index, then customer id). Because
// the alert set is shard-count independent and the merge order is total, the
// delivered batches are byte-identical for any shard count, including the
// single-threaded Monitor's sorted output; the equivalence is property-tested.
//
// Errors follow the same discipline as internal/population: each Ingest call
// is stamped with a feed sequence number, each shard remembers the
// lowest-sequence error since the last barrier, and the barrier reports the
// error with the lowest sequence across shards — for a sequential feed that
// is deterministically the first bad receipt, regardless of shard count.
package stream

import (
	"cmp"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gautrais/stability/internal/retail"
)

// ErrClosed is returned by operations on a ShardedMonitor after Close.
var ErrClosed = errors.New("stream: sharded monitor is closed")

// shardChanCap bounds each shard's ingest channel. A full channel applies
// backpressure to producers rather than buffering without limit.
const shardChanCap = 512

// shardMsg is one unit of work on a shard channel: a receipt (ctl nil), a
// control closure run on the shard goroutine with exclusive access to the
// shard's state, or a stop signal.
type shardMsg struct {
	id    retail.CustomerID
	t     time.Time
	items retail.Basket
	seq   uint64
	ctl   func()
	stop  bool
}

// shard pairs one single-threaded Monitor with its feed channel. All fields
// besides ch are owned by the shard goroutine; other goroutines reach them
// only through ctl closures (or after the goroutine has exited).
type shard struct {
	mon *Monitor
	ch  chan shardMsg
	// alerts buffers ingest-time alerts until the next barrier.
	alerts []Alert
	// firstErr/errSeq track the lowest-sequence ingest error since the last
	// barrier.
	firstErr error
	errSeq   uint64
}

func (sh *shard) run(done *sync.WaitGroup) {
	defer done.Done()
	for msg := range sh.ch {
		switch {
		case msg.stop:
			return
		case msg.ctl != nil:
			msg.ctl()
		default:
			alerts, err := sh.mon.Ingest(msg.id, msg.t, msg.items)
			sh.alerts = append(sh.alerts, alerts...)
			if err != nil && (sh.firstErr == nil || msg.seq < sh.errSeq) {
				sh.firstErr, sh.errSeq = err, msg.seq
			}
		}
	}
}

// ShardedMonitor is the parallel ingestion engine: hash-partitioned shard
// Monitors behind a fan-in Ingest. Ingest is safe for concurrent use by
// multiple producers; per-customer receipt order is preserved for receipts
// whose Ingest calls are ordered (a single producer, or external
// synchronization). Alerts are delivered at Flush/CloseThrough/Close
// barriers in (grid index, customer id) order.
//
// Close must not run concurrently with other calls; stop all producers
// first. The other methods may be used concurrently with each other.
type ShardedMonitor struct {
	cfg    Config
	shards []*shard
	seq    atomic.Uint64
	closed atomic.Bool
	done   sync.WaitGroup
	// snapMu serializes WriteSnapshot's stop-the-world pause: two
	// interleaved pauses could each park a different shard first and wait
	// on each other forever.
	snapMu sync.Mutex
}

// NewSharded validates cfg and returns a running sharded monitor. shards <= 0
// means GOMAXPROCS. Shard count is an operational knob like a worker count:
// it affects throughput only, never results or snapshots.
func NewSharded(cfg Config, shards int) (*ShardedMonitor, error) {
	s, err := newSharded(cfg, shards)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// newSharded builds the monitor without starting shard goroutines, so the
// snapshot-restore path can populate shard states race-free first.
func newSharded(cfg Config, shards int) (*ShardedMonitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	s := &ShardedMonitor{cfg: cfg, shards: make([]*shard, shards)}
	for i := range s.shards {
		mon, err := New(cfg)
		if err != nil {
			return nil, err
		}
		s.shards[i] = &shard{mon: mon, ch: make(chan shardMsg, shardChanCap)}
	}
	return s, nil
}

func (s *ShardedMonitor) start() {
	for _, sh := range s.shards {
		s.done.Add(1)
		go sh.run(&s.done)
	}
}

// FNV-1a 64-bit over the customer id's 8 little-endian bytes.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func shardIndex(id retail.CustomerID, n int) int {
	h := uint64(fnvOffset64)
	x := uint64(id)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return int(h % uint64(n))
}

// Shards returns the shard count.
func (s *ShardedMonitor) Shards() int { return len(s.shards) }

// Ingest enqueues one receipt on its customer's shard. Receipts must arrive
// in non-decreasing window order per customer, exactly as for Monitor.Ingest;
// a violation surfaces as an ErrStale-wrapped error at the next barrier.
// Ingest blocks when the shard's channel is full (backpressure). The basket
// must not be mutated by the caller after Ingest returns.
func (s *ShardedMonitor) Ingest(id retail.CustomerID, t time.Time, items retail.Basket) error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.shards[shardIndex(id, len(s.shards))].ch <- shardMsg{
		id: id, t: t, items: items, seq: s.seq.Add(1),
	}
	return nil
}

// onShards sends fn to every shard goroutine as one control closure and
// waits for all of them; channel FIFO runs each after every receipt
// enqueued on that shard before the call. fn(i, sh) has exclusive access to
// shard i's state while it runs.
func (s *ShardedMonitor) onShards(fn func(i int, sh *shard)) {
	var wg sync.WaitGroup
	wg.Add(len(s.shards))
	for i, sh := range s.shards {
		sh.ch <- shardMsg{ctl: func() {
			fn(i, sh)
			wg.Done()
		}}
	}
	wg.Wait()
}

// visit runs fn on every shard: directly once Close has stopped the shard
// goroutines, otherwise through onShards. Close sets closed before its
// final barrier, so that barrier must use onShards, not visit.
func (s *ShardedMonitor) visit(fn func(i int, sh *shard)) {
	if !s.closed.Load() {
		s.onShards(fn)
		return
	}
	for i, sh := range s.shards {
		fn(i, sh)
	}
}

// barrier drains every shard, runs fn on each shard goroutine, and merges
// the collected alerts into (grid index, customer id) order. The reported
// error is the lowest-sequence ingest error across shards since the last
// barrier; reporting clears it.
func (s *ShardedMonitor) barrier(fn func(sh *shard) []Alert) ([]Alert, error) {
	type out struct {
		alerts []Alert
		err    error
		seq    uint64
	}
	outs := make([]out, len(s.shards))
	s.onShards(func(i int, sh *shard) {
		outs[i] = out{alerts: fn(sh), err: sh.firstErr, seq: sh.errSeq}
		sh.firstErr, sh.errSeq = nil, 0
	})
	var merged []Alert
	var err error
	errSeq := uint64(math.MaxUint64)
	for _, o := range outs {
		merged = append(merged, o.alerts...)
		if o.err != nil && o.seq < errSeq {
			err, errSeq = o.err, o.seq
		}
	}
	sortAlerts(merged)
	return merged, err
}

// sortAlerts orders alerts by (grid index, customer id) — a total order,
// since a customer scores each window at most once, so the merged output is
// identical for every shard count.
func sortAlerts(alerts []Alert) {
	slices.SortFunc(alerts, func(a, b Alert) int {
		if c := cmp.Compare(a.GridIndex, b.GridIndex); c != 0 {
			return c
		}
		return cmp.Compare(a.Customer, b.Customer)
	})
}

// drainFn hands over a shard's buffered ingest alerts.
func drainFn(sh *shard) []Alert {
	a := sh.alerts
	sh.alerts = nil
	return a
}

// Flush is the barrier without window closing: it waits for every enqueued
// receipt to be processed and returns the alerts they raised, merged
// deterministically, plus the first ingest error since the last barrier.
func (s *ShardedMonitor) Flush() ([]Alert, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.barrier(drainFn)
}

// CloseThrough drains every shard, force-closes every tracked customer's
// windows through grid index k (scoring silent windows as empty, exactly as
// Monitor.CloseThrough), and returns all pending plus newly raised alerts in
// (grid index, customer id) order.
func (s *ShardedMonitor) CloseThrough(k int) ([]Alert, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.barrier(func(sh *shard) []Alert {
		return append(drainFn(sh), sh.mon.CloseThrough(k)...)
	})
}

// Evicted returns the cumulative number of customers dropped at the
// retention horizon across all shards, like Monitor.Evicted.
func (s *ShardedMonitor) Evicted() uint64 {
	evicted, _ := s.counts()
	return evicted
}

// counts returns Evicted and Customers from one visit of the shards. The
// closure captures one struct, so the pair costs the allocations of one
// count.
func (s *ShardedMonitor) counts() (evicted uint64, customers int) {
	var total struct {
		evicted   atomic.Uint64
		customers atomic.Int64
	}
	s.visit(func(_ int, sh *shard) {
		total.evicted.Add(sh.mon.Evicted())
		total.customers.Add(int64(sh.mon.Customers()))
	})
	return total.evicted.Load(), int(total.customers.Load())
}

// Close drains every shard, returns any remaining buffered alerts and
// pending error, and stops the shard goroutines. Stop all producers first;
// Ingest/Flush/CloseThrough after Close return ErrClosed, while read-only
// accessors (Stability, Customers, WriteSnapshot) keep working.
func (s *ShardedMonitor) Close() ([]Alert, error) {
	if s.closed.Swap(true) {
		return nil, ErrClosed
	}
	alerts, err := s.barrier(drainFn)
	for _, sh := range s.shards {
		sh.ch <- shardMsg{stop: true}
	}
	s.done.Wait()
	return alerts, err
}

// Stability returns the customer's last scored stability, like
// Monitor.Stability. It synchronizes with the owning shard, so it reflects
// every receipt enqueued before the call (by this goroutine).
func (s *ShardedMonitor) Stability(id retail.CustomerID) (value float64, gridIndex int, ok bool) {
	sh := s.shards[shardIndex(id, len(s.shards))]
	if s.closed.Load() {
		return sh.mon.Stability(id)
	}
	done := make(chan struct{})
	sh.ch <- shardMsg{ctl: func() {
		value, gridIndex, ok = sh.mon.Stability(id)
		close(done)
	}}
	<-done
	return value, gridIndex, ok
}

// Stabilities answers a batch of stability queries in request order,
// filling dst (truncated and reused when capacity suffices) with one row
// per id — row i is exactly what Stability(ids[i]) would return, and the
// differential serve tests pin that equivalence byte-for-byte at shards
// {1,2,4,8}.
//
// Where Stability pays one control-message round trip per customer, a
// batch pays one per *shard*: every shard goroutine receives the whole id
// slice once and fills the disjoint subset of rows it owns (ids hash to
// exactly one shard, so the writes cannot overlap and need no locks). Per
// customer the work is one hash and one map lookup — no allocation, no
// synchronization — which is what makes population-wide score sweeps a
// fast path rather than N round trips.
func (s *ShardedMonitor) Stabilities(ids []retail.CustomerID, dst []CustomerStability) []CustomerStability {
	if cap(dst) >= len(ids) {
		dst = dst[:len(ids)]
	} else {
		dst = make([]CustomerStability, len(ids))
	}
	n := len(s.shards)
	if s.closed.Load() {
		for i, id := range ids {
			sh := s.shards[shardIndex(id, n)]
			v, k, ok := sh.mon.Stability(id)
			dst[i] = CustomerStability{Customer: id, Value: v, GridIndex: k, OK: ok}
		}
		return dst
	}
	// The closure captures a never-reassigned copy of the slice header so
	// the dst parameter itself stays off the heap: reassigning a captured
	// variable would force it heap-allocated at function entry, charging
	// the allocation-free closed path too.
	out := dst
	s.onShards(func(si int, sh *shard) {
		for i, id := range ids {
			if shardIndex(id, n) != si {
				continue
			}
			v, k, ok := sh.mon.Stability(id)
			out[i] = CustomerStability{Customer: id, Value: v, GridIndex: k, OK: ok}
		}
	})
	return dst
}

// Customers returns the number of customers tracked across all shards.
func (s *ShardedMonitor) Customers() int {
	_, customers := s.counts()
	return customers
}

// WriteSnapshot persists the monitor in the same SMN1 format as
// Monitor.WriteSnapshot: shard count is an operational knob, not persisted
// state, so the bytes are identical to the single-threaded monitor's for the
// same feed and a snapshot written with S shards restores with any S'. The
// shards are drained and held quiescent while their states stream out
// through a k-way merge of the per-shard sorted id lists — states flow
// straight from each shard map to the writer, with no merged intermediate
// map, so the pause's memory overhead is one id slice per shard instead of
// a copy of the whole population's state index. Buffered alerts are not
// part of the snapshot — Flush before snapshotting if they must not be
// lost across a restart.
func (s *ShardedMonitor) WriteSnapshot(w io.Writer) error {
	if s.closed.Load() {
		return writeStates(w, s.cfg, s.shardStates())
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	release := make(chan struct{})
	var arrived sync.WaitGroup
	for _, sh := range s.shards {
		arrived.Add(1)
		sh.ch <- shardMsg{ctl: func() {
			arrived.Done()
			<-release
		}}
	}
	// All shard goroutines are parked on release: their states are
	// quiescent and safe to read from here until release closes.
	arrived.Wait()
	err := writeStates(w, s.cfg, s.shardStates())
	close(release)
	return err
}

// shardStates collects the disjoint per-shard state maps. Callers must
// hold all shards quiescent.
func (s *ShardedMonitor) shardStates() []map[retail.CustomerID]*custState {
	states := make([]map[retail.CustomerID]*custState, len(s.shards))
	for i, sh := range s.shards {
		states[i] = sh.mon.states
	}
	return states
}

// Watermark returns the lowest open (not yet scored) window index across
// all tracked customers — after a uniform CloseThrough(k) barrier this is
// k+1, the index replay should resume feeding from. ok is false when no
// customers are tracked.
func (s *ShardedMonitor) Watermark() (k int, ok bool) {
	type minK struct {
		k  int
		ok bool
	}
	mins := make([]minK, len(s.shards))
	s.visit(func(i int, sh *shard) {
		k, ok := sh.mon.Watermark()
		mins[i] = minK{k: k, ok: ok}
	})
	for _, m := range mins {
		if m.ok && (!ok || m.k < k) {
			k, ok = m.k, true
		}
	}
	return k, ok
}

// ReadShardedMonitorSnapshot restores a sharded monitor from any SMN1
// snapshot — written by a Monitor or by a ShardedMonitor with any shard
// count. cfg follows the ReadMonitorSnapshot contract; shards <= 0 means
// GOMAXPROCS.
func ReadShardedMonitorSnapshot(r io.Reader, cfg Config, shards int) (*ShardedMonitor, error) {
	s, err := newSharded(cfg, shards)
	if err != nil {
		return nil, err
	}
	// The shard goroutines are not running yet, so the restore fills their
	// monitors directly.
	err = readMonitorStates(r, cfg, func(id retail.CustomerID, st *custState) {
		s.shards[shardIndex(id, len(s.shards))].mon.addRestored(id, st.take())
	})
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}
