package retail

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestNewBasketNormalizes(t *testing.T) {
	tests := []struct {
		name string
		in   []ItemID
		want Basket
	}{
		{"empty", nil, Basket{}},
		{"single", []ItemID{5}, Basket{5}},
		{"sorted kept", []ItemID{1, 2, 3}, Basket{1, 2, 3}},
		{"unsorted", []ItemID{3, 1, 2}, Basket{1, 2, 3}},
		{"duplicates", []ItemID{2, 2, 2}, Basket{2}},
		{"mixed", []ItemID{5, 1, 5, 3, 1}, Basket{1, 3, 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := NewBasket(tt.in)
			if !got.Equal(tt.want) {
				t.Fatalf("NewBasket(%v) = %v, want %v", tt.in, got, tt.want)
			}
			if !got.IsNormalized() {
				t.Fatalf("NewBasket(%v) = %v is not normalized", tt.in, got)
			}
		})
	}
}

func TestNewBasketDoesNotMutateInput(t *testing.T) {
	in := []ItemID{3, 1, 2}
	NewBasket(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input slice mutated: %v", in)
	}
}

// TestNormalizeInPlace pins the copy-free normalizer against NewBasket:
// same items, and the result is a prefix of the caller's slice.
func TestNormalizeInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		in := make([]ItemID, r.Intn(12))
		for i := range in {
			in[i] = ItemID(r.Intn(6) + 1)
		}
		want := NewBasket(in)
		got := Normalize(in)
		if !got.Equal(want) {
			t.Fatalf("Normalize(%v) = %v, want %v", in, got, want)
		}
		if len(got) > 0 && &got[0] != &in[0] {
			t.Fatalf("Normalize(%v) did not reuse the input's backing array", in)
		}
	}
}

func TestBasketContains(t *testing.T) {
	b := NewBasket([]ItemID{2, 4, 6, 8})
	for _, p := range []ItemID{2, 4, 6, 8} {
		if !b.Contains(p) {
			t.Errorf("Contains(%d) = false, want true", p)
		}
	}
	for _, p := range []ItemID{1, 3, 5, 7, 9, 100} {
		if b.Contains(p) {
			t.Errorf("Contains(%d) = true, want false", p)
		}
	}
	if (Basket{}).Contains(1) {
		t.Error("empty basket Contains(1) = true")
	}
}

func TestBasketUnion(t *testing.T) {
	tests := []struct {
		name string
		a, b Basket
		want Basket
	}{
		{"both empty", Basket{}, Basket{}, Basket{}},
		{"left empty", Basket{}, Basket{1, 2}, Basket{1, 2}},
		{"right empty", Basket{1, 2}, Basket{}, Basket{1, 2}},
		{"disjoint", Basket{1, 3}, Basket{2, 4}, Basket{1, 2, 3, 4}},
		{"overlapping", Basket{1, 2, 3}, Basket{2, 3, 4}, Basket{1, 2, 3, 4}},
		{"identical", Basket{1, 2}, Basket{1, 2}, Basket{1, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.a.Union(tt.b)
			if !got.Equal(tt.want) {
				t.Fatalf("%v ∪ %v = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestBasketUnionProperties(t *testing.T) {
	gen := func(r *rand.Rand) Basket {
		n := r.Intn(12)
		items := make([]ItemID, n)
		for i := range items {
			items[i] = ItemID(r.Intn(20) + 1)
		}
		return NewBasket(items)
	}
	cfg := &quick.Config{MaxCount: 200, Values: nil}
	// Commutativity.
	commutative := func(seedA, seedB int64) bool {
		a := gen(rand.New(rand.NewSource(seedA)))
		b := gen(rand.New(rand.NewSource(seedB)))
		return a.Union(b).Equal(b.Union(a))
	}
	if err := quick.Check(commutative, cfg); err != nil {
		t.Error(err)
	}
	// Idempotence and containment.
	contains := func(seedA, seedB int64) bool {
		a := gen(rand.New(rand.NewSource(seedA)))
		b := gen(rand.New(rand.NewSource(seedB)))
		u := a.Union(b)
		if !u.IsNormalized() {
			return false
		}
		for _, p := range a {
			if !u.Contains(p) {
				return false
			}
		}
		for _, p := range b {
			if !u.Contains(p) {
				return false
			}
		}
		return u.Union(u).Equal(u)
	}
	if err := quick.Check(contains, cfg); err != nil {
		t.Error(err)
	}
}

// TestUnionInto: the buffer-reusing union must agree with Union and
// actually reuse dst's capacity.
func TestUnionInto(t *testing.T) {
	gen := func(r *rand.Rand) Basket {
		n := r.Intn(12)
		items := make([]ItemID, n)
		for i := range items {
			items[i] = ItemID(r.Intn(20) + 1)
		}
		return NewBasket(items)
	}
	agrees := func(seedA, seedB int64) bool {
		a := gen(rand.New(rand.NewSource(seedA)))
		b := gen(rand.New(rand.NewSource(seedB)))
		return UnionInto(nil, a, b).Equal(a.Union(b))
	}
	if err := quick.Check(agrees, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}

	// Capacity reuse: a dst with enough room must not be reallocated.
	dst := make(Basket, 0, 16)
	a, b := Basket{1, 3, 5}, Basket{2, 3, 6}
	out := UnionInto(dst, a, b)
	if !out.Equal(Basket{1, 2, 3, 5, 6}) {
		t.Fatalf("UnionInto = %v", out)
	}
	if &out[0] != &dst[:1][0] {
		t.Fatal("UnionInto reallocated despite sufficient capacity")
	}
	// Inputs must be untouched.
	if !a.Equal(Basket{1, 3, 5}) || !b.Equal(Basket{2, 3, 6}) {
		t.Fatalf("inputs mutated: %v %v", a, b)
	}
	// Reuse with stale longer contents is truncated, not merged with.
	out = UnionInto(out, Basket{9}, nil)
	if !out.Equal(Basket{9}) {
		t.Fatalf("stale dst leaked: %v", out)
	}
}

func TestBasketClone(t *testing.T) {
	a := NewBasket([]ItemID{1, 2, 3})
	c := a.Clone()
	if !c.Equal(a) {
		t.Fatalf("clone %v != original %v", c, a)
	}
	c[0] = 99
	if a[0] == 99 {
		t.Fatal("clone shares backing array with original")
	}
}

func TestBasketEqual(t *testing.T) {
	if !(Basket{}).Equal(Basket{}) {
		t.Error("empty baskets not equal")
	}
	if (Basket{1}).Equal(Basket{1, 2}) {
		t.Error("different lengths reported equal")
	}
	if (Basket{1, 3}).Equal(Basket{1, 2}) {
		t.Error("different items reported equal")
	}
}

func TestIsNormalized(t *testing.T) {
	tests := []struct {
		b    Basket
		want bool
	}{
		{Basket{}, true},
		{Basket{1}, true},
		{Basket{1, 2, 3}, true},
		{Basket{1, 1}, false},
		{Basket{2, 1}, false},
	}
	for _, tt := range tests {
		if got := tt.b.IsNormalized(); got != tt.want {
			t.Errorf("IsNormalized(%v) = %v, want %v", tt.b, got, tt.want)
		}
	}
}

func day(n int) time.Time {
	return time.Date(2012, time.May, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, n)
}

func TestHistoryValidate(t *testing.T) {
	good := History{Customer: 1, Receipts: []Receipt{
		{Time: day(0), Items: NewBasket([]ItemID{1})},
		{Time: day(1), Items: NewBasket([]ItemID{2})},
		{Time: day(1), Items: NewBasket([]ItemID{3})}, // tie is fine
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid history rejected: %v", err)
	}

	outOfOrder := History{Customer: 1, Receipts: []Receipt{
		{Time: day(2), Items: Basket{}},
		{Time: day(1), Items: Basket{}},
	}}
	if err := outOfOrder.Validate(); err == nil {
		t.Fatal("out-of-order history accepted")
	}

	denormal := History{Customer: 1, Receipts: []Receipt{
		{Time: day(0), Items: Basket{2, 1}},
	}}
	if err := denormal.Validate(); err == nil {
		t.Fatal("denormalized basket accepted")
	}

	negative := History{Customer: 1, Receipts: []Receipt{
		{Time: day(0), Items: Basket{}, Spend: -1},
	}}
	if err := negative.Validate(); err == nil {
		t.Fatal("negative spend accepted")
	}
}

func TestHistorySort(t *testing.T) {
	h := History{Customer: 1, Receipts: []Receipt{
		{Time: day(3), Spend: 3, Items: Basket{}},
		{Time: day(1), Spend: 1, Items: Basket{}},
		{Time: day(2), Spend: 2, Items: Basket{}},
	}}
	h.Sort()
	for i := 1; i < len(h.Receipts); i++ {
		if h.Receipts[i].Time.Before(h.Receipts[i-1].Time) {
			t.Fatalf("not sorted at %d", i)
		}
	}
	if h.Receipts[0].Spend != 1 || h.Receipts[2].Spend != 3 {
		t.Fatalf("unexpected order: %+v", h.Receipts)
	}
}

func TestHistorySortStable(t *testing.T) {
	h := History{Customer: 1, Receipts: []Receipt{
		{Time: day(1), Spend: 1, Items: Basket{}},
		{Time: day(1), Spend: 2, Items: Basket{}},
		{Time: day(1), Spend: 3, Items: Basket{}},
	}}
	h.Sort()
	if h.Receipts[0].Spend != 1 || h.Receipts[1].Spend != 2 || h.Receipts[2].Spend != 3 {
		t.Fatalf("equal-timestamp order not preserved: %+v", h.Receipts)
	}
}

func TestHistorySpanAndTotals(t *testing.T) {
	var empty History
	if _, _, ok := empty.Span(); ok {
		t.Fatal("empty history reported a span")
	}
	if empty.TotalSpend() != 0 {
		t.Fatal("empty history has non-zero spend")
	}
	if len(empty.Items()) != 0 {
		t.Fatal("empty history has items")
	}

	h := History{Customer: 1, Receipts: []Receipt{
		{Time: day(0), Items: NewBasket([]ItemID{1, 2}), Spend: 10},
		{Time: day(5), Items: NewBasket([]ItemID{2, 3}), Spend: 5.5},
	}}
	first, last, ok := h.Span()
	if !ok || !first.Equal(day(0)) || !last.Equal(day(5)) {
		t.Fatalf("Span() = %v,%v,%v", first, last, ok)
	}
	if got := h.TotalSpend(); got != 15.5 {
		t.Fatalf("TotalSpend() = %v, want 15.5", got)
	}
	if got := h.Items(); !got.Equal(Basket{1, 2, 3}) {
		t.Fatalf("Items() = %v, want [1 2 3]", got)
	}
}

func TestCohortStringAndParse(t *testing.T) {
	for _, c := range []Cohort{CohortUnknown, CohortLoyal, CohortDefecting} {
		parsed, err := ParseCohort(c.String())
		if err != nil {
			t.Fatalf("ParseCohort(%q): %v", c.String(), err)
		}
		if parsed != c {
			t.Fatalf("round trip %v -> %q -> %v", c, c.String(), parsed)
		}
	}
	if _, err := ParseCohort("bogus"); err == nil {
		t.Fatal("ParseCohort accepted bogus input")
	}
}
