package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/gautrais/stability/internal/retail"
)

// sameBits reports whether two Results agree field by field, floats
// compared by their bits.
func sameBits(a, b Result) bool {
	if a.Seq != b.Seq || math.Float64bits(a.Stability) != math.Float64bits(b.Stability) ||
		a.Defined != b.Defined || math.Float64bits(a.Drop) != math.Float64bits(b.Drop) ||
		a.Counted != b.Counted || !slices.Equal(a.NewItems, b.NewItems) || len(a.Missing) != len(b.Missing) {
		return false
	}
	for i, m := range a.Missing {
		n := b.Missing[i]
		if m.Item != n.Item || m.Net != n.Net ||
			math.Float64bits(m.LogSignificance) != math.Float64bits(n.LogSignificance) ||
			math.Float64bits(m.Share) != math.Float64bits(n.Share) {
			return false
		}
	}
	return true
}

// TestSharedScorerMatchesOwnTrackers drives many States through one shared
// Scorer and, window for window, an independent NewTracker per customer.
// Every Result must be bit-identical and every state must serialize to the
// tracker's STK1 bytes. The shared Scorer starts on an empty private
// significance table, and the opening windows make one customer's deficit
// miss it, growing the table and refreshing the Scorer's cached snapshot,
// before another customer scores an item at that deficit.
func TestSharedScorerMatchesOwnTrackers(t *testing.T) {
	for _, opts := range []Options{
		{Alpha: 2},
		{Alpha: 1.5, MaxBlame: 3},
		{Alpha: 3, Policy: CountFromOrigin},
		{Alpha: 1.1, Policy: CountFromOrigin, MaxBlame: 1},
	} {
		t.Run(fmt.Sprintf("%+v", opts), func(t *testing.T) {
			const customers = 6
			sc := newScorer(opts, NewSigTable(opts.Alpha))
			states := make([]State, customers)
			refs := make([]*Tracker, customers)
			for c := range refs {
				tr, err := NewTracker(opts)
				if err != nil {
					t.Fatal(err)
				}
				refs[c] = tr
			}
			r := rand.New(rand.NewSource(int64(opts.Alpha * 100)))
			step := func(c int, items retail.Basket) {
				t.Helper()
				j := r.Intn(4)
				explain := r.Intn(3) != 0
				decide := func(Result) bool { return explain }
				got := states[c].ObserveIf(&sc, items, j, decide)
				want := refs[c].ObserveIf(items, j, decide)
				if !sameBits(got, want) {
					t.Fatalf("customer %d window %d:\nshared %+v\nown    %+v", c, want.Seq, got, want)
				}
			}
			// Customer 0 buys item 1 in twelve windows and item 2 once, so the
			// next window scores item 2 at deficit 11, past anything the table
			// held: the miss grows it and refreshes the shared snapshot.
			// Customer 1 then builds the same deficit and reads that snapshot.
			for c := 0; c < 2; c++ {
				step(c, basket(1, 2))
				for w := 0; w < 11; w++ {
					step(c, basket(1))
				}
				before := len(sc.terms)
				step(c, basket(3))
				if grew := len(sc.terms) > before; grew != (c == 0) || len(sc.terms) <= 11 {
					t.Fatalf("customer %d: shared snapshot %d -> %d terms", c, before, len(sc.terms))
				}
			}
			for w := 0; w < 400; w++ {
				c := r.Intn(customers)
				if r.Intn(6) == 0 {
					step(c, nil)
					continue
				}
				step(c, randomBasket(r, 10+3*c))
			}
			for c := range states {
				var got, want bytes.Buffer
				if err := states[c].WriteSnapshot(opts, &got); err != nil {
					t.Fatal(err)
				}
				if err := refs[c].WriteSnapshot(&want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("customer %d STK1 bytes differ:\nshared %x\nown    %x", c, got.Bytes(), want.Bytes())
				}
			}
		})
	}
}
