// Package store implements the transaction store that feeds the stability
// model: an in-memory, read-optimized collection of per-customer purchase
// histories with time-range scans, summary statistics, and CSV / JSONL /
// binary codecs. It plays the role of the receipt database the paper's
// retailer provided.
//
// Ingest goes through a Builder which tolerates out-of-order arrival and
// duplicate receipt timestamps (both occur in real point-of-sale feeds);
// Build sorts each history once and freezes the result. A built Store is
// immutable and safe for concurrent readers.
package store

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/gautrais/stability/internal/population"
	"github.com/gautrais/stability/internal/retail"
)

// Store is an immutable set of customer purchase histories.
type Store struct {
	histories []retail.History // sorted by CustomerID
	index     map[retail.CustomerID]int
	minTime   time.Time
	maxTime   time.Time
	receipts  int
}

// ErrNoCustomer is returned when a customer is absent from the store.
var ErrNoCustomer = errors.New("store: customer not found")

// NumCustomers returns the number of customers.
func (s *Store) NumCustomers() int { return len(s.histories) }

// NumReceipts returns the total number of receipts.
func (s *Store) NumReceipts() int { return s.receipts }

// TimeRange returns the timestamps of the earliest and latest receipts.
// ok is false for an empty store.
func (s *Store) TimeRange() (min, max time.Time, ok bool) {
	if s.receipts == 0 {
		return time.Time{}, time.Time{}, false
	}
	return s.minTime, s.maxTime, true
}

// History returns the purchase history of one customer. The returned
// history shares the store's backing arrays and must not be mutated.
func (s *Store) History(id retail.CustomerID) (retail.History, error) {
	i, ok := s.index[id]
	if !ok {
		return retail.History{}, fmt.Errorf("%w: %d", ErrNoCustomer, id)
	}
	return s.histories[i], nil
}

// Customers returns all customer identifiers in ascending order.
func (s *Store) Customers() []retail.CustomerID {
	out := make([]retail.CustomerID, len(s.histories))
	for i, h := range s.histories {
		out[i] = h.Customer
	}
	return out
}

// Each calls fn for every history in customer order. fn must not mutate the
// history. Iteration stops early if fn returns false.
func (s *Store) Each(fn func(h retail.History) bool) {
	for _, h := range s.histories {
		if !fn(h) {
			return
		}
	}
}

// EachByMonth calls fn for every receipt of s in (month, customer id,
// history position) order, handing fn the month it visits the receipt in;
// month is called once per receipt. fn must not mutate the receipt.
// Iteration stops early if fn returns false.
//
// Each chronological history is cut into one block per month and the
// blocks are sorted by (month, customer), so the work follows the receipts
// and blocks, never the span of months between them. A customer's
// receipts are never reordered: where the month falls along a history
// (grid months fall only where time.Time's calendar wraps, past year ±292
// billion), the receipt stays in its predecessor's block and is handed
// that block's month, the running maximum along the history.
func EachByMonth(s *Store, month func(time.Time) int, fn func(id retail.CustomerID, r retail.Receipt, m int) bool) {
	type block struct {
		month, run int // run indexes Store.histories
		lo, hi     int // the block's receipts within the run
	}
	blocks := make([]block, 0, len(s.histories))
	for run, h := range s.histories {
		for pos, r := range h.Receipts {
			m := month(r.Time)
			if last := len(blocks) - 1; pos > 0 && m <= blocks[last].month {
				blocks[last].hi++
				continue
			}
			blocks = append(blocks, block{month: m, run: run, lo: pos, hi: pos + 1})
		}
	}
	slices.SortFunc(blocks, func(a, b block) int {
		if c := cmp.Compare(a.month, b.month); c != 0 {
			return c
		}
		return cmp.Compare(a.run, b.run)
	})
	for _, b := range blocks {
		h := &s.histories[b.run]
		for _, r := range h.Receipts[b.lo:b.hi] {
			if !fn(h.Customer, r, b.month) {
				return
			}
		}
	}
}

// Scan returns the receipts of one customer within [from, to). The returned
// slice aliases the store and must not be mutated.
func (s *Store) Scan(id retail.CustomerID, from, to time.Time) ([]retail.Receipt, error) {
	h, err := s.History(id)
	if err != nil {
		return nil, err
	}
	rs := h.Receipts
	lo := sort.Search(len(rs), func(i int) bool { return !rs[i].Time.Before(from) })
	hi := sort.Search(len(rs), func(i int) bool { return !rs[i].Time.Before(to) })
	return rs[lo:hi], nil
}

// Subset returns a new store containing only the listed customers. Unknown
// identifiers are skipped. The subset shares receipt storage with s.
func (s *Store) Subset(ids []retail.CustomerID) *Store {
	b := NewBuilder()
	for _, id := range ids {
		if i, ok := s.index[id]; ok {
			h := s.histories[i]
			b.addHistory(h)
		}
	}
	return b.Build()
}

// Builder accumulates receipts and produces an immutable Store. The zero
// value is not usable; call NewBuilder. Builders are not safe for
// concurrent use (shard per goroutine and merge).
type Builder struct {
	byCustomer map[retail.CustomerID]*retail.History
}

// NewBuilder returns an empty store builder.
func NewBuilder() *Builder {
	return &Builder{byCustomer: make(map[retail.CustomerID]*retail.History)}
}

// Add appends one receipt. Items are normalized; out-of-order timestamps
// are fine (Build sorts). Empty baskets are legal (e.g., returns-only
// visits) but contribute nothing to the model.
func (b *Builder) Add(id retail.CustomerID, t time.Time, items []retail.ItemID, spend float64) error {
	if spend < 0 {
		return fmt.Errorf("store: customer %d: negative spend %v", id, spend)
	}
	h, ok := b.byCustomer[id]
	if !ok {
		h = &retail.History{Customer: id}
		b.byCustomer[id] = h
	}
	h.Receipts = append(h.Receipts, retail.Receipt{Time: t, Items: retail.NewBasket(items), Spend: spend})
	return nil
}

// AddReceipt appends an already-normalized receipt, avoiding the basket
// copy. The receipt's basket must be normalized (NewBasket output).
func (b *Builder) AddReceipt(id retail.CustomerID, r retail.Receipt) error {
	if r.Spend < 0 {
		return fmt.Errorf("store: customer %d: negative spend %v", id, r.Spend)
	}
	if !r.Items.IsNormalized() {
		return fmt.Errorf("store: customer %d: basket not normalized", id)
	}
	h, ok := b.byCustomer[id]
	if !ok {
		h = &retail.History{Customer: id}
		b.byCustomer[id] = h
	}
	h.Receipts = append(h.Receipts, r)
	return nil
}

func (b *Builder) addHistory(h retail.History) {
	cp := retail.History{Customer: h.Customer, Receipts: h.Receipts}
	b.byCustomer[h.Customer] = &cp
}

// Merge folds another builder's contents into b. The merged receipts are
// shared (receipts are immutable), but the history headers are copied with
// their capacity clipped, so later Adds on either builder can never reach
// into the other's backing arrays.
func (b *Builder) Merge(other *Builder) {
	//detlint:ignore R1 per-customer keyed merge; each id is touched exactly once, so visit order cannot leak
	for id, h := range other.byCustomer {
		mine, ok := b.byCustomer[id]
		if !ok {
			cp := retail.History{
				Customer: h.Customer,
				Receipts: h.Receipts[:len(h.Receipts):len(h.Receipts)],
			}
			b.byCustomer[id] = &cp
			continue
		}
		mine.Receipts = append(mine.Receipts, h.Receipts...)
	}
}

// Options tune how Build and Append execute. They never affect the built
// store: every worker count produces byte-identical stores.
type Options struct {
	// Workers is the per-history sort/merge pool size; <= 0 means
	// GOMAXPROCS.
	Workers int
}

// sortedIDs returns the builder's customer identifiers in ascending order.
func (b *Builder) sortedIDs() []retail.CustomerID {
	ids := make([]retail.CustomerID, 0, len(b.byCustomer))
	//detlint:ignore R1 collects ids that are sorted immediately below
	for id := range b.byCustomer {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// sortedCopy returns an independent chronologically sorted copy of a
// history (stable, preserving insertion order among equal timestamps).
func sortedCopy(h *retail.History) retail.History {
	cp := retail.History{Customer: h.Customer, Receipts: make([]retail.Receipt, len(h.Receipts))}
	copy(cp.Receipts, h.Receipts)
	cp.Sort()
	return cp
}

// assemble freezes a customer-ascending history slice into a Store,
// deriving the index, receipt count and time range.
func assemble(histories []retail.History) *Store {
	s := &Store{
		histories: histories,
		index:     make(map[retail.CustomerID]int, len(histories)),
	}
	for i, h := range s.histories {
		s.index[h.Customer] = i
		s.receipts += len(h.Receipts)
		if first, last, ok := h.Span(); ok {
			if s.minTime.IsZero() || first.Before(s.minTime) {
				s.minTime = first
			}
			if s.maxTime.IsZero() || last.After(s.maxTime) {
				s.maxTime = last
			}
		}
	}
	return s
}

// Build sorts every history chronologically and freezes the store on all
// CPUs. The builder may keep being used; subsequent Builds include later
// additions.
func (b *Builder) Build() *Store {
	return b.BuildWith(Options{})
}

// BuildWith is Build with an explicit worker count: the per-history
// sort/copy fans out over the population engine, and the result is
// byte-identical at every worker count (each history sorts independently
// and histories assemble in ascending customer order).
func (b *Builder) BuildWith(opts Options) *Store {
	ids := b.sortedIDs()
	histories, _ := population.Map(len(ids), population.Options{Workers: opts.Workers},
		func(i int) (retail.History, error) {
			return sortedCopy(b.byCustomer[ids[i]]), nil
		})
	return assemble(histories)
}

// Append freezes a new store holding prev's histories plus the builder's
// receipts, on all CPUs. See AppendWith.
func (b *Builder) Append(prev *Store) *Store {
	return b.AppendWith(prev, Options{})
}

// AppendWith grows a frozen store without re-sorting history: customers
// untouched by the builder share prev's frozen receipt slices outright,
// and customers with new receipts get one linear merge of prev's sorted
// run with the (sorted) new batch — prev receipts win ties, exactly the
// stable order Build gives a builder holding old-then-new receipts. The
// per-customer merges fan out over the population engine; the result is
// byte-identical to a from-scratch Build of all receipts at every worker
// count. prev is never mutated; nil prev is an empty store.
func (b *Builder) AppendWith(prev *Store, opts Options) *Store {
	if prev == nil || len(prev.histories) == 0 {
		return b.BuildWith(opts)
	}
	newIDs := b.sortedIDs()
	// Plan the merged customer walk: ascending over the union of prev's
	// customers and the builder's.
	type job struct {
		frozen *retail.History // prev's history, nil for brand-new customers
		added  *retail.History // builder's receipts, nil for untouched ones
	}
	jobs := make([]job, 0, len(prev.histories)+len(newIDs))
	pi, ni := 0, 0
	for pi < len(prev.histories) || ni < len(newIDs) {
		switch {
		case ni == len(newIDs) || (pi < len(prev.histories) && prev.histories[pi].Customer < newIDs[ni]):
			jobs = append(jobs, job{frozen: &prev.histories[pi]})
			pi++
		case pi == len(prev.histories) || newIDs[ni] < prev.histories[pi].Customer:
			jobs = append(jobs, job{added: b.byCustomer[newIDs[ni]]})
			ni++
		default:
			jobs = append(jobs, job{frozen: &prev.histories[pi], added: b.byCustomer[newIDs[ni]]})
			pi++
			ni++
		}
	}
	histories, _ := population.Map(len(jobs), population.Options{Workers: opts.Workers},
		func(i int) (retail.History, error) {
			j := jobs[i]
			switch {
			case j.added == nil:
				return *j.frozen, nil // untouched: alias the frozen history
			case j.frozen == nil:
				return sortedCopy(j.added), nil
			}
			add := sortedCopy(j.added)
			old := j.frozen.Receipts
			merged := make([]retail.Receipt, 0, len(old)+len(add.Receipts))
			oi := 0
			for _, r := range add.Receipts {
				for oi < len(old) && !old[oi].Time.After(r.Time) {
					merged = append(merged, old[oi])
					oi++
				}
				merged = append(merged, r)
			}
			merged = append(merged, old[oi:]...)
			return retail.History{Customer: j.frozen.Customer, Receipts: merged}, nil
		})
	return assemble(histories)
}

// DeltaSince returns, per customer in ascending order, the receipts
// present in s but not in prev, assuming s extends prev: every prev
// history must be a prefix of its counterpart in s (the shape AppendWith
// produces from receipts arriving after prev's horizon). Customers whose
// histories are unchanged are omitted. The returned histories alias s and
// must not be mutated. A nil prev yields every history. The prefix
// property is checked cheaply (counts plus the boundary receipt), so
// stores that interleaved new receipts into the frozen past are rejected
// rather than mis-reported.
func (s *Store) DeltaSince(prev *Store) ([]retail.History, error) {
	if prev == nil {
		out := make([]retail.History, len(s.histories))
		copy(out, s.histories)
		return out, nil
	}
	for _, ph := range prev.histories {
		if _, ok := s.index[ph.Customer]; !ok {
			return nil, fmt.Errorf("store: customer %d present in prev but missing from the extended store", ph.Customer)
		}
	}
	var out []retail.History
	for _, h := range s.histories {
		prevN := 0
		if j, ok := prev.index[h.Customer]; ok {
			ph := prev.histories[j]
			prevN = len(ph.Receipts)
			if prevN > len(h.Receipts) {
				return nil, fmt.Errorf("store: customer %d shrank from %d to %d receipts (not an extension)",
					h.Customer, prevN, len(h.Receipts))
			}
			if prevN > 0 {
				a, b := ph.Receipts[prevN-1], h.Receipts[prevN-1]
				if !a.Time.Equal(b.Time) || a.Spend != b.Spend || !a.Items.Equal(b.Items) {
					return nil, fmt.Errorf("store: customer %d boundary receipt differs (not an extension)", h.Customer)
				}
			}
		}
		if prevN < len(h.Receipts) {
			out = append(out, retail.History{Customer: h.Customer, Receipts: h.Receipts[prevN:]})
		}
	}
	return out, nil
}
