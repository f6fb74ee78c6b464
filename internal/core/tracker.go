package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"github.com/gautrais/stability/internal/retail"
)

// Tracker computes the stability series of one customer incrementally: feed
// windows in chronological order with Observe and read each window's
// stability, blame list, and bookkeeping from the returned Result.
//
// State is columnar: two parallel slices hold the repertoire in ascending
// item order — items[i] has been bought in counts[i] counted windows — plus
// the global counted-window count W; the exponent of the significance of
// any item is 2c−W (see the package comment). The canonical iteration is a
// single cache-friendly scan, and each window folds in with one sorted
// merge of repertoire × basket. Memory is O(distinct items), time per
// window is O(distinct items + |uk|). The significance terms α^{2(c−maxC)}
// depend only on the count deficit maxC−c and on α, so they come from a
// process-wide SigTable shared by every tracker with the same α rather
// than being recomputed with math.Exp per item per window.
//
// Trackers are not safe for concurrent use; analyses shard one tracker per
// customer (or reuse one tracker per worker via Reset).
//
// A Tracker is a Scorer (the model state) plus a State (the customer's
// state), each tracker owning its own Scorer. A caller that tracks many
// customers on one goroutine can instead keep one Scorer and a State per
// customer, as stream.Monitor does; results are bit-identical.
type Tracker struct {
	sc Scorer
	st State
}

// Scorer is the model state that windows are scored with: the options, ln α,
// the significance table and its cached snapshot. It holds nothing about any
// customer, so one Scorer serves any number of States. It is mutable — a
// deficit past the cached snapshot refreshes the cache — so it must never be
// shared across goroutines: share it only among States driven by one
// goroutine.
type Scorer struct {
	opts Options
	logA float64
	// sig is the grow-only memo of α^{−2d} terms, shared across scorers
	// with the same α. terms caches its latest immutable snapshot so the
	// per-item hot path is one bounds check and a load with no atomics;
	// misses refresh the cache through the table.
	sig   *SigTable
	terms []float64
}

// State is one customer's tracker state, without the model: the repertoire
// columns and the series bookkeeping. The zero State is an empty tracker.
// Every method that scores or serializes takes the Scorer (or its Options)
// the State is driven with; a State must always be driven with the same
// options.
type State struct {
	items    []retail.ItemID // ascending item id: the canonical iteration order
	counts   []int32         // counts[i] = c of items[i]; counts only grow
	maxCount int32           // running max of counts; counts only grow, so never recomputed
	windows  int32           // W: counted prior windows
	seq      int             // observations so far (including uncounted leading ones)

	prevStability float64
	started       bool // a non-empty window has been counted
	prevDefined   bool
}

// Blame attributes part of a stability decrease to one missing item.
type Blame struct {
	// Item is the missing (or, in Present lists, present) item.
	Item retail.ItemID
	// Net is the significance exponent c−l.
	Net int
	// LogSignificance is ln S(p,k) = Net·ln α.
	LogSignificance float64
	// Share is S(p,k) / Σ_q S(q,k): exactly how much stability the item's
	// absence from the window costs. Shares of all seen items sum to 1.
	Share float64
}

// Result describes one observed window.
type Result struct {
	// Seq is the 0-based observation sequence number within the tracker.
	Seq int
	// Stability is the paper's Stability_i^k in [0,1]. When Defined is
	// false (no counted prior history), it is 1 by convention.
	Stability float64
	// Defined reports whether the denominator Σ S(p,k) was positive.
	Defined bool
	// Drop is max(0, previous stability − this stability); 0 on the first
	// defined window.
	Drop float64
	// Missing lists the seen-but-absent items (c>0, not in the window),
	// most significant first — the paper's attrition explanation. Capped
	// at Options.MaxBlame when non-zero, and at ObserveIf's j. Empty when
	// the window was not explained (ObserveStability, a declined ObserveIf).
	Missing []Blame
	// NewItems lists items bought for the first time in this window; they
	// have zero significance and affect nothing yet. Empty when the window
	// was not explained.
	NewItems []retail.ItemID
	// Counted reports whether this window incremented the prior-window
	// count (false only for leading empty windows under
	// CountFromFirstSeen).
	Counted bool
}

// NewTracker validates opts and returns an empty tracker backed by the
// process-wide shared significance table for opts.Alpha.
func NewTracker(opts Options) (*Tracker, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return newTracker(opts, SharedSigTable(opts.Alpha)), nil
}

// NewTrackerWithSigTable is NewTracker on a caller-supplied significance
// table (normally a private NewSigTable). Results are bit-identical to a
// shared-table tracker — the differential tests pin it — so this exists for
// those tests and for callers that want memo isolation, not for speed.
func NewTrackerWithSigTable(opts Options, sig *SigTable) (*Tracker, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if sig == nil {
		sig = SharedSigTable(opts.Alpha)
	}
	return newTracker(opts, sig), nil
}

func newTracker(opts Options, sig *SigTable) *Tracker {
	return &Tracker{sc: newScorer(opts, sig)}
}

// NewScorer validates opts and returns a scorer backed by the process-wide
// shared significance table for opts.Alpha.
func NewScorer(opts Options) (*Scorer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	sc := newScorer(opts, SharedSigTable(opts.Alpha))
	return &sc, nil
}

func newScorer(opts Options, sig *SigTable) Scorer {
	return Scorer{
		opts:  opts,
		logA:  math.Log(opts.Alpha),
		sig:   sig,
		terms: sig.snapshot(),
	}
}

// Options returns the tracker's configuration.
func (t *Tracker) Options() Options { return t.sc.opts }

// Seen returns the number of distinct items observed so far.
func (t *Tracker) Seen() int { return len(t.st.items) }

// Windows returns W, the number of counted windows so far.
func (t *Tracker) Windows() int { return t.st.Windows() }

// Windows returns W, the number of counted windows so far.
func (s *State) Windows() int { return int(s.windows) }

// term returns α^{2(c−maxC)} for the count deficit d = maxC−c ≥ 0. The
// common case is one bounds check and a load from the cached snapshot;
// termSlow grows the shared table.
func (sc *Scorer) term(d int32) float64 {
	if int(d) < len(sc.terms) {
		return sc.terms[d]
	}
	return sc.termSlow(d)
}

// termSlow resolves a deficit past the cached snapshot. Deficits at or
// past the table's underflow boundary return 0 immediately — bit-identical
// to the math.Exp the table would run, and the steady-state case for items
// lapsed longer than the memo cap (the profile-guided win: this branch
// replaced the math.Exp calls that dominated BenchmarkTrackerObserve).
// Otherwise the shared table grows (or computes directly past its cap) and
// the cache is refreshed so subsequent windows stay on the fast path.
func (sc *Scorer) termSlow(d int32) float64 {
	if d >= sc.sig.zeroFrom {
		return 0
	}
	v := sc.sig.Term(d)
	sc.terms = sc.sig.snapshot()
	return v
}

// Observe feeds the next window's item set uk (must be a normalized basket)
// and returns the window's Result. Stability is computed against the state
// before this window (c and l count windows v < k), then the window is
// folded into the counts. Every window is explained, with Missing capped at
// Options.MaxBlame.
func (t *Tracker) Observe(items retail.Basket) Result {
	return t.st.ObserveIf(&t.sc, items, 0, explainAlways)
}

// ObserveStability is Observe without building blame and new-item lists —
// the hot path for population-scale scoring. Results carry empty Missing
// and NewItems, and the steady state (no first-seen items in the window)
// performs no allocations.
func (t *Tracker) ObserveStability(items retail.Basket) Result {
	return t.st.ObserveIf(&t.sc, items, 0, nil)
}

// ObserveIf is Observe that explains only the windows the caller asks
// about. The window is scored against the prior state, then explain
// receives that Result — Stability, Defined, Drop and Counted final,
// Missing and NewItems still empty, the window not yet folded in. When it
// returns true, Missing is filled with the first j entries of the list
// Observe would build (the whole list when j ≤ 0; Options.MaxBlame still
// caps it) and NewItems is built; then the window is folded in. Stability,
// the explained lists and the tracker state are bit-identical to Observe's.
// explain may read the tracker (Windows does not count this window yet) but
// must not feed it windows. A window it declines costs no allocation beyond
// what ObserveStability makes.
func (t *Tracker) ObserveIf(items retail.Basket, j int, explain func(Result) bool) Result {
	return t.st.ObserveIf(&t.sc, items, j, explain)
}

func explainAlways(Result) bool { return true }

// ObserveIf is Tracker.ObserveIf on this state, scored with sc: the one
// window step. It scores against the prior state, asks explain (nil: never)
// whether to build the lists, builds them, then folds.
func (s *State) ObserveIf(sc *Scorer, items retail.Basket, topJ int, explain func(Result) bool) Result {
	res := Result{Seq: s.seq}
	s.seq++

	skipCount := false
	if !s.started {
		if len(items) == 0 && sc.opts.Policy == CountFromFirstSeen {
			skipCount = true
		} else {
			s.started = true
		}
	}

	maxC := s.maxCount
	num, den, hits := s.scan(sc, items)
	if den > 0 {
		res.Defined = true
		res.Stability = num / den
		if res.Stability > 1 {
			res.Stability = 1 // guard against rounding
		}
	}
	if !res.Defined {
		res.Stability = 1 // convention: no history means trivially stable
	}
	if s.prevDefined && res.Defined && res.Stability < s.prevStability {
		res.Drop = s.prevStability - res.Stability
	}
	s.prevStability, s.prevDefined = res.Stability, res.Defined
	// A leading empty window under CountFromFirstSeen records nothing.
	res.Counted = !skipCount

	if explain != nil && explain(res) {
		if res.Defined {
			res.Missing = s.blame(sc, items, maxC, den, len(s.items)-hits, sc.blameCap(topJ))
		}
		res.NewItems = s.newItems(items)
	}
	if res.Counted {
		s.windows++
		s.fold(items)
	}
	return res
}

// scan scores the basket against the prior state. Exponent of item p is
// 2c−W; shift by the maximum exponent so the largest term is exactly 1: den
// sums every repertoire item's term, num the terms of the items the basket
// holds, and hits counts those. Iterating in canonical (ascending item)
// order — never Go's randomized map order — keeps the non-associative float
// sums bit-identical across runs, restores and worker counts. The
// repertoire and the basket are both sorted, so membership is a sorted
// merge, not a lookup per item. The scan is a function of its own, with the
// terms snapshot and the table's underflow boundary in locals, so that its
// loop keeps every value in a register and reading the snapshot through a
// shared Scorer adds no dependent load per item. An item lapsed past the
// boundary costs no call: its term is exactly +0, as termSlow would return.
func (s *State) scan(sc *Scorer, items retail.Basket) (num, den float64, hits int) {
	maxC := s.maxCount
	terms, zeroFrom := sc.terms, sc.sig.zeroFrom
	counts := s.counts[:len(s.items)]
	j := 0
	for i, p := range s.items {
		var term float64
		if d := maxC - counts[i]; int(d) < len(terms) {
			term = terms[d]
		} else if d < zeroFrom {
			term = sc.termSlow(d)
			terms = sc.terms
		}
		den += term
		for j < len(items) && items[j] < p {
			j++ // basket item not in the repertoire: first purchase, S=0
		}
		if j < len(items) && items[j] == p {
			num += term
			hits++
			j++
		}
	}
	return num, den, hits
}

// blameCap is the number of blame entries a window keeps: the smaller of
// topJ and MaxBlame, counting only the ones that are set (0 = no cap).
func (sc *Scorer) blameCap(topJ int) int {
	if m := sc.opts.MaxBlame; m > 0 && (topJ <= 0 || m < topJ) {
		return m
	}
	return max(topJ, 0)
}

// newItems lists the basket items absent from the repertoire, in basket
// (ascending) order. nil when every item has been seen before.
func (s *State) newItems(items retail.Basket) []retail.ItemID {
	var out []retail.ItemID
	i := 0
	for _, p := range items {
		for i < len(s.items) && s.items[i] < p {
			i++
		}
		if i == len(s.items) || s.items[i] != p {
			out = append(out, p)
		}
	}
	return out
}

// fold merges the window's basket into the columnar counters: existing
// items are bumped in place, first-seen items are spliced in by a single
// backward merge that preserves the canonical ascending order, and the
// max-count watermark is maintained. The no-new-items steady state touches
// only the count column and allocates nothing.
func (s *State) fold(items retail.Basket) {
	if len(items) == 0 {
		return
	}
	newN := 0
	i := 0
	for _, p := range items {
		for i < len(s.items) && s.items[i] < p {
			i++
		}
		if i < len(s.items) && s.items[i] == p {
			c := s.counts[i] + 1
			s.counts[i] = c
			if c > s.maxCount {
				s.maxCount = c
			}
			i++
		} else {
			newN++
		}
	}
	if newN == 0 {
		return
	}
	if s.maxCount < 1 {
		s.maxCount = 1 // first-seen items enter with c=1
	}
	oldN := len(s.items)
	s.items = growColumn(s.items, oldN+newN)
	s.counts = growColumn(s.counts, oldN+newN)
	// Merge from the back so every element moves at most once.
	w := oldN + newN - 1
	i = oldN - 1
	j := len(items) - 1
	for j >= 0 {
		switch {
		case i >= 0 && s.items[i] > items[j]:
			s.items[w] = s.items[i]
			s.counts[w] = s.counts[i]
			i--
		case i >= 0 && s.items[i] == items[j]:
			s.items[w] = s.items[i]
			s.counts[w] = s.counts[i] // already bumped in the first pass
			i--
			j--
		default:
			s.items[w] = items[j]
			s.counts[w] = 1
			j--
		}
		w--
	}
}

// growColumn returns col resliced to length n. Only when its capacity runs
// out does it reallocate, to n plus n/8 headroom, rounded up to the
// allocator's size class (bytes the allocation holds anyway). Doubling
// would leave a grown column up to half empty for the life of the customer;
// the headroom keeps a repertoire that grows item by item from reallocating
// at every first purchase.
func growColumn[E retail.ItemID | int32](col []E, n int) []E {
	if n <= cap(col) {
		return col[:n]
	}
	// Appending to a nil slice sizes the array to the request rounded up
	// to its size class, not to twice an old capacity.
	grown := append([]E(nil), make([]E, n+n/8)...)
	copy(grown, col)
	return grown[:n]
}

// blame lists the window's missing items — the n repertoire items absent
// from the basket — most significant first: Net descending, then Item
// ascending, keeping the first limit entries (limit ≤ 0: all). The order is
// total, so the kept entries are the same whether the whole list is sorted
// and truncated or selected in one pass; with 0 < limit < n it selects. The
// scan visits items in ascending order, so an entry that ties the last kept
// one on Net ranks after it, and only a strictly larger Net displaces it.
// The result's capacity is its length: a caller that keeps it holds no
// scan-sized array.
func (s *State) blame(sc *Scorer, items retail.Basket, maxC int32, den float64, n, limit int) []Blame {
	selecting := limit > 0 && limit < n
	if !selecting {
		limit = n
	}
	out := make([]Blame, 0, limit)
	j := 0
	for i, p := range s.items {
		for j < len(items) && items[j] < p {
			j++
		}
		if j < len(items) && items[j] == p {
			j++
			continue
		}
		c := s.counts[i]
		net := int(2*c - s.windows)
		if selecting && len(out) == limit && net <= out[limit-1].Net {
			continue
		}
		b := Blame{
			Item:            p,
			Net:             net,
			LogSignificance: float64(net) * sc.logA,
			Share:           sc.term(maxC-c) / den,
		}
		if !selecting {
			out = append(out, b)
			continue
		}
		pos := len(out)
		for pos > 0 && out[pos-1].Net < net {
			pos--
		}
		if len(out) < limit {
			out = append(out, Blame{})
		}
		copy(out[pos+1:], out[pos:len(out)-1])
		out[pos] = b
	}
	if !selecting {
		slices.SortFunc(out, func(a, b Blame) int {
			if a.Net != b.Net {
				return cmp.Compare(b.Net, a.Net)
			}
			return cmp.Compare(a.Item, b.Item)
		})
	}
	return out
}

// find returns the column index of item p, or ok=false when p has never
// been bought.
func (s *State) find(p retail.ItemID) (int, bool) {
	i := sort.Search(len(s.items), func(i int) bool { return s.items[i] >= p })
	if i < len(s.items) && s.items[i] == p {
		return i, true
	}
	return i, false
}

// SignificanceOf returns the current (post-fold) significance exponent
// c−l of item p and whether the item has ever been bought. It reflects the
// state after the last Observe — i.e. the S(p, k+1) numerator exponent for
// the next window.
func (t *Tracker) SignificanceOf(p retail.ItemID) (net int, seen bool) {
	i, ok := t.st.find(p)
	if !ok {
		return 0, false
	}
	return int(2*t.st.counts[i] - t.st.windows), true
}

// Reset returns the tracker to its initial state, keeping options and
// retaining the column and memo-table capacity so a worker can score many
// customers with one tracker and no steady-state allocations.
func (t *Tracker) Reset() { t.st.reset() }

// reset empties the state, retaining its column capacity.
func (s *State) reset() {
	*s = State{items: s.items[:0], counts: s.counts[:0]}
}
