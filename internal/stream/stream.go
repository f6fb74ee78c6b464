// Package stream provides online attrition monitoring: receipts are
// ingested one at a time (the shape of a live point-of-sale feed), windows
// roll over automatically on the configured grid, and an Alert is emitted
// whenever a customer's stability falls to or below the loyalty threshold
// β — with the blamed products attached, so each alert is immediately
// actionable.
//
// The monitor produces byte-identical stability values to the batch
// pipeline (window.Windowize + core.Model.Analyze); the equivalence is
// property-tested. A window is scored when it closes, i.e. when a later
// receipt (or an explicit CloseThrough) proves no more purchases can fall
// inside it. Windows with no purchases at all are scored as empty — absence
// is the signal attrition lives in.
//
// Monitor is the single-threaded engine; ShardedMonitor fans the same
// engine across customer-hash shards for multi-core ingestion with
// identical results (see sharded.go).
package stream

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/window"
)

// Config parameterizes a Monitor.
type Config struct {
	// Grid is the window grid receipts are bucketed on.
	Grid window.Grid
	// Model configures the stability model (α, policy, blame cap).
	Model core.Options
	// Beta is the loyalty threshold: a scored window with
	// stability ≤ Beta raises an alert (the paper's detection rule:
	// stability > β ⇒ loyal).
	Beta float64
	// TopJ caps the blamed products attached to each alert (0 = all).
	TopJ int
	// WarmupWindows suppresses alerts until the customer has at least this
	// many counted windows of history. Early windows score against a thin
	// significance profile and alert noisily (cold start); 3–4 windows of
	// warm-up removes most of that noise. 0 disables warm-up.
	WarmupWindows int
	// RetentionWindows bounds memory over unbounded time: a customer last
	// active in window s is scored through window s+RetentionWindows — the
	// silent windows that drive the stability decay toward an alert — and
	// then dropped. Inside that horizon alerts and stabilities are
	// bit-identical to a monitor retaining everything (property-tested);
	// a dropped customer who returns starts a fresh relationship, exactly
	// as a new customer id would. 0 retains every customer forever.
	RetentionWindows int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if !(c.Beta >= 0 && c.Beta < 1) {
		return fmt.Errorf("stream: beta must be in [0,1), got %v", c.Beta)
	}
	if c.TopJ < 0 {
		return fmt.Errorf("stream: TopJ must be >= 0, got %d", c.TopJ)
	}
	if c.WarmupWindows < 0 {
		return fmt.Errorf("stream: WarmupWindows must be >= 0, got %d", c.WarmupWindows)
	}
	if c.RetentionWindows < 0 {
		return fmt.Errorf("stream: RetentionWindows must be >= 0, got %d", c.RetentionWindows)
	}
	if c.Grid.Span().Months < 1 {
		return errors.New("stream: zero-value grid")
	}
	return nil
}

// Alert is one detection event.
type Alert struct {
	Customer  retail.CustomerID
	GridIndex int
	// Start/End bound the scored window.
	Start, End time.Time
	Stability  float64
	// Drop is the decrease vs. the customer's previous scored window.
	Drop float64
	// Blame lists the most significant missing products.
	Blame []core.Blame
}

// Scored is one closed window's result (alerting or not), for callers that
// want the full stream rather than alerts only.
type Scored struct {
	Customer  retail.CustomerID
	GridIndex int
	Result    core.Result
}

// ErrStale is returned when a receipt arrives for a window that has
// already been closed for its customer.
var ErrStale = errors.New("stream: receipt for an already-closed window")

// custState is one tracked customer. A stability query reads lastStability,
// lastScoredK and scored, so they lead the struct side by side instead of
// sitting behind the tracker's 80 bytes.
type custState struct {
	// lastStability/lastDefined feed Alert.Drop; scored reports whether
	// any window has been scored yet.
	lastStability float64
	lastScoredK   int
	scored        bool
	lastDefined   bool
	openK         int // grid index of the open (accumulating) window
	// lastActiveK is the window of the customer's newest receipt; the
	// retention horizon measures silence from here.
	lastActiveK int
	// pending accumulates the open window's item set. It keeps its capacity
	// across windows; Ingest unions into the monitor's spare basket and
	// swaps the two, so buffers move between customers.
	pending retail.Basket
	// tracker is the customer's model state, scored with the monitor's
	// shared Scorer.
	tracker core.State
}

// take moves st into a new heap state and leaves st empty, so the next
// snapshot customer decoded into st allocates buffers of its own.
func (st *custState) take() *custState {
	moved := new(custState)
	*moved, *st = *st, custState{}
	return moved
}

// Monitor ingests receipts and emits alerts. Not safe for concurrent use;
// ShardedMonitor wraps it with hash-partitioned parallel ingestion for
// multi-core feeds.
type Monitor struct {
	cfg Config
	// scorer is the model state every customer's tracker scores with: held
	// once per monitor, never shared with another monitor or goroutine.
	scorer core.Scorer
	states map[retail.CustomerID]*custState
	// spare is the basket Ingest unions a customer's pending items and the
	// receipt into before swapping it with their pending buffer, so the
	// steady state allocates no merged basket per receipt.
	spare retail.Basket
	// ids is the sorted customer index CloseThrough iterates; newIDs
	// buffers customers first seen since the last merge. Folding the
	// (small) new batch in with one sort + one linear merge keeps barriers
	// from re-sorting the whole customer set: a steady-state barrier over n
	// customers is O(n), not O(n log n).
	ids    []retail.CustomerID
	newIDs []retail.CustomerID
	// scoredHook, when set, receives every closed window (used by tests
	// and by callers that want full traces).
	scoredHook func(Scored)
	// evicted counts customers dropped at the retention horizon.
	evicted uint64
}

// New validates cfg and returns an empty monitor.
func New(cfg Config) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scorer, err := core.NewScorer(cfg.Model)
	if err != nil {
		return nil, err
	}
	return &Monitor{cfg: cfg, scorer: *scorer, states: make(map[retail.CustomerID]*custState)}, nil
}

// OnScored registers a hook receiving every closed window in scoring
// order. Pass nil to remove. While a hook is registered every window builds
// its full explanation (Result.Missing capped only by Model.MaxBlame, plus
// NewItems), as Tracker.Observe does; without one, only the windows that
// alert are explained, and only to their TopJ entries.
func (m *Monitor) OnScored(fn func(Scored)) { m.scoredHook = fn }

// Customers returns the number of customers currently tracked.
func (m *Monitor) Customers() int { return len(m.states) }

// Ingest feeds one receipt. Receipts must arrive in non-decreasing window
// order per customer (receipts within the same window may arrive in any
// order). Closing earlier windows may emit alerts, which are returned.
func (m *Monitor) Ingest(id retail.CustomerID, t time.Time, items retail.Basket) ([]Alert, error) {
	if !items.IsNormalized() {
		items = retail.NewBasket(items)
	}
	k := m.cfg.Grid.Index(t)
	st, ok := m.states[id]
	if !ok {
		st = &custState{openK: k, lastScoredK: k - 1, lastActiveK: k}
		m.states[id] = st
		m.newIDs = append(m.newIDs, id)
	}
	if k < st.openK {
		return nil, fmt.Errorf("%w: customer %d window %d (open is %d)", ErrStale, id, k, st.openK)
	}
	var alerts []Alert
	if limit, bounded := m.horizonLimit(st); bounded && k > limit {
		// The customer returns after their retention horizon: score the old
		// relationship through the horizon (exactly what eviction would have
		// done) and start a fresh one — a returning churned customer is a
		// new relationship, bit-identical to a barrier having evicted them.
		alerts = m.closeThrough(id, st, k-1) // clamps at limit
		m.evicted++
		// Reuse the pointer: the id stays valid in the sorted index.
		*st = custState{openK: k, lastScoredK: k - 1, lastActiveK: k}
	} else if k > st.openK {
		alerts = m.closeThrough(id, st, k-1)
	}
	if k > st.lastActiveK {
		st.lastActiveK = k
	}
	m.spare = retail.UnionInto(m.spare, st.pending, items)
	st.pending, m.spare = m.spare, st.pending
	return alerts, nil
}

// horizonLimit returns the last window index the customer may still score:
// with a retention horizon of H windows and last activity in window s, the
// customer scores windows through s+H and nothing after. bounded is false
// when RetentionWindows is 0 (retain forever).
func (m *Monitor) horizonLimit(st *custState) (limit int, bounded bool) {
	if m.cfg.RetentionWindows <= 0 {
		return 0, false
	}
	return st.lastActiveK + m.cfg.RetentionWindows, true
}

// closeThrough scores the open window and any empty windows up to and
// including k, leaving a fresh open window at k+1. With a retention horizon
// configured, k is clamped to the customer's horizon: windows past it are
// never scored, no matter how late the closing barrier arrives, so the
// scored-window set is independent of barrier timing.
//
// Each window is scored before the tracker folds it in, and the alert rule
// decides on that score whether the window needs an explanation: only an
// alerting window builds its blame list, and only its first TopJ entries.
// A registered OnScored hook gets every window fully explained instead.
func (m *Monitor) closeThrough(id retail.CustomerID, st *custState, k int) []Alert {
	if limit, bounded := m.horizonLimit(st); bounded && k > limit {
		k = limit
	}
	hooked := m.scoredHook != nil
	j := m.cfg.TopJ
	if hooked {
		j = 0
	}
	var alerts []Alert
	for st.openK <= k {
		alert := false
		res := st.tracker.ObserveIf(&m.scorer, st.pending, j, func(r core.Result) bool {
			alert = m.alerting(st, r)
			return alert || hooked
		})
		st.pending = st.pending[:0] // the tracker retains nothing; keep the buffer
		if hooked {
			m.scoredHook(Scored{Customer: id, GridIndex: st.openK, Result: res})
		}
		if alert {
			alerts = append(alerts, m.toAlert(id, st, res))
		}
		st.lastStability, st.lastDefined = res.Stability, res.Defined
		st.lastScoredK = st.openK
		st.scored = true
		st.openK++
	}
	return alerts
}

// alerting is the alert rule, applied to a scored window before the
// tracker folds it in. An undefined window (no prior history; stability 1
// by convention, so never ≤ β) does not alert. Warm-up requires that many
// counted windows before the scored one: a defined window is always
// counted, and the tracker's Windows() does not include it yet.
func (m *Monitor) alerting(st *custState, res core.Result) bool {
	return res.Defined && st.tracker.Windows() >= m.cfg.WarmupWindows && res.Stability <= m.cfg.Beta
}

// toAlert builds the alert for a window the alert rule flagged.
func (m *Monitor) toAlert(id retail.CustomerID, st *custState, res core.Result) Alert {
	start, end := m.cfg.Grid.Bounds(st.openK)
	blame := res.Missing
	if m.cfg.TopJ > 0 && len(blame) > m.cfg.TopJ {
		blame = blame[:m.cfg.TopJ]
	}
	drop := 0.0
	if st.lastDefined && res.Defined && res.Stability < st.lastStability {
		drop = st.lastStability - res.Stability
	}
	return Alert{
		Customer:  id,
		GridIndex: st.openK,
		Start:     start,
		End:       end,
		Stability: res.Stability,
		Drop:      drop,
		Blame:     blame,
	}
}

// mergeIDs folds the customers first seen since the last merge into the
// sorted index: sort the new batch, then one backward in-place merge. New
// customers arrive only on their first receipt, so the batch is small (and
// usually empty) at a steady-state barrier.
func (m *Monitor) mergeIDs() {
	if len(m.newIDs) == 0 {
		return
	}
	slices.Sort(m.newIDs)
	ni := len(m.ids)
	m.ids = append(m.ids, m.newIDs...)
	// Backward merge: ids[0:ni] and newIDs are each sorted and disjoint
	// (a customer enters newIDs only when absent from states).
	for w, nj := len(m.ids)-1, len(m.newIDs)-1; nj >= 0; w-- {
		if ni > 0 && m.ids[ni-1] > m.newIDs[nj] {
			m.ids[w] = m.ids[ni-1]
			ni--
		} else {
			m.ids[w] = m.newIDs[nj]
			nj--
		}
	}
	m.newIDs = m.newIDs[:0]
}

// addRestored registers a snapshot-restored customer state. The index is
// rebuilt lazily at the next barrier, so restore order does not matter.
func (m *Monitor) addRestored(id retail.CustomerID, st *custState) {
	m.states[id] = st
	m.newIDs = append(m.newIDs, id)
}

// CloseThrough force-closes every tracked customer's windows through grid
// index k (inclusive), scoring them (empty where no purchases arrived) and
// returning any alerts, ordered by customer id. Use at end-of-feed, or
// periodically with the feed's watermark so silent customers — the
// defecting ones — still get scored. With a retention horizon configured,
// customers whose horizon ends at or before k are scored through it and
// evicted in the same pass.
func (m *Monitor) CloseThrough(k int) []Alert {
	m.mergeIDs()
	var alerts []Alert
	evicted := false
	for _, id := range m.ids {
		st := m.states[id]
		if limit, bounded := m.horizonLimit(st); bounded && limit <= k {
			if st.openK <= limit {
				alerts = append(alerts, m.closeThrough(id, st, limit)...)
			}
			delete(m.states, id)
			m.evicted++
			evicted = true
			continue
		}
		if st.openK <= k {
			alerts = append(alerts, m.closeThrough(id, st, k)...)
		}
	}
	if evicted {
		m.compactIDs()
	}
	return alerts
}

// Evicted returns the cumulative number of customers dropped at the
// retention horizon (including horizon-crossing returns, which end the old
// relationship). Restored monitors start the count at zero.
func (m *Monitor) Evicted() uint64 { return m.evicted }

// compactIDs filters evicted customers out of the sorted index in place.
func (m *Monitor) compactIDs() {
	w := 0
	for _, id := range m.ids {
		if _, ok := m.states[id]; ok {
			m.ids[w] = id
			w++
		}
	}
	m.ids = m.ids[:w]
}

// Watermark returns the lowest open (not yet scored) window index across
// all tracked customers — after CloseThrough(k) it is k+1, the index
// replay should resume feeding from. ok is false when no customers are
// tracked.
func (m *Monitor) Watermark() (k int, ok bool) {
	//detlint:ignore R1 folds a minimum over values; min is commutative, so visit order cannot leak
	for _, st := range m.states {
		if !ok || st.openK < k {
			k, ok = st.openK, true
		}
	}
	return k, ok
}

// Stability returns the last scored stability of a customer, with ok=false
// when the customer is unknown or no window has been scored yet.
func (m *Monitor) Stability(id retail.CustomerID) (value float64, gridIndex int, ok bool) {
	st, found := m.states[id]
	if !found || !st.scored {
		return 0, 0, false
	}
	return st.lastStability, st.lastScoredK, true
}

// CustomerStability is one row of a batch stability query: the answer
// Stability would give for Customer, with OK false when the customer is
// unknown or not yet scored (Value and GridIndex are then zero).
type CustomerStability struct {
	Customer  retail.CustomerID
	Value     float64
	GridIndex int
	OK        bool
}

// Stabilities answers a batch of stability queries in request order,
// appending one row per id into dst (which is truncated and reused when
// its capacity suffices — a caller-recycled dst makes the steady state
// allocation-free). Row i is exactly what Stability(ids[i]) would return.
func (m *Monitor) Stabilities(ids []retail.CustomerID, dst []CustomerStability) []CustomerStability {
	if cap(dst) >= len(ids) {
		dst = dst[:len(ids)]
	} else {
		dst = make([]CustomerStability, len(ids))
	}
	for i, id := range ids {
		v, k, ok := m.Stability(id)
		dst[i] = CustomerStability{Customer: id, Value: v, GridIndex: k, OK: ok}
	}
	return dst
}
