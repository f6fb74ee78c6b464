// Package retail defines the domain model shared by every subsystem of the
// stability library: items (product segments), baskets, timestamped
// receipts, per-customer purchase histories, and cohort labels.
//
// The model follows the paper's formalization: the purchases of customer i
// form a chronologically ordered list Di = ⟨(b1,t1) … (bN,tN)⟩ where each
// basket bj is a subset of the item universe I. Items are dictionary-encoded
// segment identifiers (see package taxonomy); the stability model operates
// at the segment level of abstraction, as the paper's evaluation does.
package retail

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"
)

// ItemID identifies a product segment. The zero value is not a valid item;
// identifiers are assigned densely starting at 1 by the taxonomy catalog,
// which keeps 0 free as a sentinel.
type ItemID uint32

// NoItem is the sentinel "absent item" identifier.
const NoItem ItemID = 0

// CustomerID identifies a customer account (loyalty-card holder).
type CustomerID uint64

// Basket is the set of items bought in one receipt. Baskets are kept sorted
// by ItemID with duplicates removed; use NewBasket to normalize raw input.
type Basket []ItemID

// NewBasket returns a normalized (sorted, deduplicated) basket built from
// raw item identifiers. The input slice is not modified.
func NewBasket(items []ItemID) Basket {
	if len(items) == 0 {
		return Basket{}
	}
	return Normalize(slices.Clone(items))
}

// Normalize sorts items in place, drops duplicates, and returns the
// normalized prefix of items — the copy-free path for a caller that owns
// the slice, such as a decoder carving baskets out of one buffer.
func Normalize(items []ItemID) Basket {
	slices.Sort(items)
	return slices.Compact(Basket(items))
}

// Contains reports whether the basket contains item p. The basket must be
// normalized (sorted ascending), which NewBasket guarantees.
func (b Basket) Contains(p ItemID) bool {
	i := sort.Search(len(b), func(i int) bool { return b[i] >= p })
	return i < len(b) && b[i] == p
}

// Union returns the normalized union of b and other.
func (b Basket) Union(other Basket) Basket {
	return UnionInto(make(Basket, 0, len(b)+len(other)), b, other)
}

// UnionInto appends the normalized union of a and b to dst[:0] and returns
// it, reusing dst's capacity — the allocation-free path for long-lived
// accumulators (e.g. a streaming monitor's open-window basket). dst must
// not alias a or b; a and b must be normalized.
func UnionInto(dst, a, b Basket) Basket {
	out := dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Equal reports whether two normalized baskets hold the same items.
func (b Basket) Equal(other Basket) bool {
	if len(b) != len(other) {
		return false
	}
	for i := range b {
		if b[i] != other[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the basket.
func (b Basket) Clone() Basket {
	out := make(Basket, len(b))
	copy(out, b)
	return out
}

// IsNormalized reports whether the basket is sorted ascending with no
// duplicates.
func (b Basket) IsNormalized() bool {
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			return false
		}
	}
	return true
}

// Receipt is one timestamped store visit: the basket content and the total
// monetary value of the visit. Spend is used only by the RFM baseline; the
// stability model itself consumes basket contents alone.
type Receipt struct {
	Time  time.Time
	Items Basket
	Spend float64
}

// History is the chronologically ordered purchase record Di of one customer.
type History struct {
	Customer CustomerID
	Receipts []Receipt
}

// Validate checks the structural invariants of a history: receipts sorted by
// time (ties allowed), normalized baskets, non-negative spend.
func (h *History) Validate() error {
	for i, r := range h.Receipts {
		if i > 0 && r.Time.Before(h.Receipts[i-1].Time) {
			return fmt.Errorf("retail: customer %d: receipt %d out of order (%s before %s)",
				h.Customer, i, r.Time.Format(time.RFC3339), h.Receipts[i-1].Time.Format(time.RFC3339))
		}
		if !r.Items.IsNormalized() {
			return fmt.Errorf("retail: customer %d: receipt %d basket not normalized", h.Customer, i)
		}
		if r.Spend < 0 {
			return fmt.Errorf("retail: customer %d: receipt %d negative spend %v", h.Customer, i, r.Spend)
		}
	}
	return nil
}

// Sort orders receipts chronologically in place (stable, preserving insert
// order among equal timestamps). A history already in order, the common
// case, costs one pass.
func (h *History) Sort() {
	byTime := func(a, b Receipt) int { return a.Time.Compare(b.Time) }
	if !slices.IsSortedFunc(h.Receipts, byTime) {
		slices.SortStableFunc(h.Receipts, byTime)
	}
}

// Span returns the time of the first and last receipts. ok is false for an
// empty history.
func (h *History) Span() (first, last time.Time, ok bool) {
	if len(h.Receipts) == 0 {
		return time.Time{}, time.Time{}, false
	}
	return h.Receipts[0].Time, h.Receipts[len(h.Receipts)-1].Time, true
}

// TotalSpend returns the summed monetary value of every receipt.
func (h *History) TotalSpend() float64 {
	var total float64
	for _, r := range h.Receipts {
		total += r.Spend
	}
	return total
}

// Items returns the set of distinct items bought across the whole history.
func (h *History) Items() Basket {
	var u Basket
	for _, r := range h.Receipts {
		u = u.Union(r.Items)
	}
	return u
}

// Cohort classifies a customer for evaluation purposes, mirroring the labels
// the retailer supplied for the paper's experiments.
type Cohort int8

const (
	// CohortUnknown marks customers with no supplied label.
	CohortUnknown Cohort = iota
	// CohortLoyal marks behaviourally loyal customers that did not defect.
	CohortLoyal
	// CohortDefecting marks loyal customers that defected during the
	// observation period (partial attrition).
	CohortDefecting
)

// String returns the lowercase cohort name.
func (c Cohort) String() string {
	switch c {
	case CohortLoyal:
		return "loyal"
	case CohortDefecting:
		return "defecting"
	default:
		return "unknown"
	}
}

// ParseCohort converts a cohort name back to its value. It accepts the
// strings produced by Cohort.String.
func ParseCohort(s string) (Cohort, error) {
	switch s {
	case "loyal":
		return CohortLoyal, nil
	case "defecting":
		return CohortDefecting, nil
	case "unknown":
		return CohortUnknown, nil
	}
	return CohortUnknown, fmt.Errorf("retail: unknown cohort %q", s)
}

// Label is the ground-truth evaluation record for one customer.
type Label struct {
	Customer CustomerID
	Cohort   Cohort
	// OnsetMonth is the month index (relative to the dataset origin, first
	// month = 0) at which defection began. It is meaningful only for
	// CohortDefecting; -1 otherwise.
	OnsetMonth int
}

// ErrEmptyHistory is returned by operations that require at least one
// receipt.
var ErrEmptyHistory = errors.New("retail: empty history")
