package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/gautrais/stability/internal/retail"
)

// TestSharedSigTableMatchesPrivate drives two trackers over identical
// random histories — one on the process-wide shared table, one on a fresh
// private table — while a third tracker with a *different* history churns
// the shared table in between, forcing it to grow in an order the private
// table never sees. Every Result must be bit-identical: the significance
// terms are a pure function of (α, deficit), so which tracker grew the
// table, and to what depth, must be unobservable in scored output.
func TestSharedSigTableMatchesPrivate(t *testing.T) {
	cases := []Options{
		{Alpha: 2},
		{Alpha: 2, Policy: CountFromOrigin},
		{Alpha: 1.1, MaxBlame: 4},
		{Alpha: 7.5, Policy: CountFromOrigin, MaxBlame: 2},
	}
	for _, opts := range cases {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			shared, err := NewTracker(opts)
			if err != nil {
				t.Fatal(err)
			}
			private, err := NewTrackerWithSigTable(opts, NewSigTable(opts.Alpha))
			if err != nil {
				t.Fatal(err)
			}
			churn, err := NewTracker(opts) // same shared table as `shared`
			if err != nil {
				t.Fatal(err)
			}
			if shared.sc.sig != churn.sc.sig {
				t.Fatal("two NewTracker trackers with equal α should share one table")
			}
			if shared.sc.sig == private.sc.sig {
				t.Fatal("private table leaked into the shared registry")
			}
			universe := 3 + rng.Intn(50)
			churnRng := rand.New(rand.NewSource(seed + 1000))
			for k := 0; k < 60; k++ {
				// Churn grows the shared table with an unrelated, sparser
				// history (larger deficits) before the tracked observation.
				churn.Observe(randomBasket(churnRng, universe*3))
				var b retail.Basket
				if rng.Intn(8) != 0 {
					b = randomBasket(rng, universe)
				} else {
					b = retail.Basket{}
				}
				got, want := shared.Observe(b), private.Observe(b)
				if !equalResults(got, want) {
					t.Fatalf("opts %+v seed %d window %d:\nshared  %+v\nprivate %+v",
						opts, seed, k, got, want)
				}
			}
		}
	}
}

// TestSigTableConcurrentGrowth grows one table from many goroutines in
// racing, overlapping order and then requires every memoized entry to be
// bit-identical to the direct math.Exp evaluation. Interleaved copy-on-grow
// publications must never produce an entry that differs from the canonical
// expression, or parallel workers sharing a table would diverge from
// sequential ones.
func TestSigTableConcurrentGrowth(t *testing.T) {
	const alpha = 1.37
	tab := NewSigTable(alpha)
	logA := math.Log(alpha)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				d := int32(rng.Intn(maxSigTerms + 64)) // past the cap too
				want := math.Exp(float64(-2*d) * logA)
				if got := tab.Term(d); got != want {
					t.Errorf("Term(%d) = %x, want %x", d, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	terms := tab.snapshot()
	if len(terms) > maxSigTerms {
		t.Fatalf("table grew past the cap: %d entries", len(terms))
	}
	for d, got := range terms {
		if want := math.Exp(float64(-2*int32(d)) * logA); got != want {
			t.Fatalf("entry %d = %x, want %x", d, got, want)
		}
	}
}

// TestSigTableZeroBoundary pins the underflow shortcut: zeroFrom must sit
// exactly where math.Exp starts returning +0, every deficit at or past it
// must come back as exactly +0 from both the table and the tracker's term
// path, and the deficit just below it must still match direct evaluation
// (non-zero). Tables whose terms never decay to zero must report
// sigZeroNever and keep evaluating directly.
func TestSigTableZeroBoundary(t *testing.T) {
	for _, alpha := range []float64{1.1, 1.37, 2, 7.5, 100} {
		tab := NewSigTable(alpha)
		logA := math.Log(alpha)
		z := tab.zeroFrom
		if z == sigZeroNever {
			t.Fatalf("α=%v: no zero boundary found", alpha)
		}
		if v := math.Exp(float64(-2*(z-1)) * logA); v == 0 {
			t.Fatalf("α=%v: term(%d) = 0 below the boundary", alpha, z-1)
		}
		if v := math.Exp(float64(-2*z) * logA); v != 0 {
			t.Fatalf("α=%v: term(%d) = %x at the boundary, want +0", alpha, z, v)
		}
		for _, d := range []int32{z - 1, z, z + 1, z + 1000, 1 << 30} {
			want := math.Exp(float64(-2*d) * logA)
			if got := tab.Term(d); got != want || math.Signbit(got) != math.Signbit(want) {
				t.Fatalf("α=%v: Term(%d) = %x, want %x", alpha, d, got, want)
			}
		}
		tr, err := NewTrackerWithSigTable(Options{Alpha: alpha}, tab)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []int32{z - 1, z, z + 7} {
			want := math.Exp(float64(-2*d) * logA)
			if got := tr.sc.term(d); got != want {
				t.Fatalf("α=%v: tracker term(%d) = %x, want %x", alpha, d, got, want)
			}
		}
	}
	// α = 1: terms are constant 1, no boundary exists.
	if tab := NewSigTable(1); tab.zeroFrom != sigZeroNever {
		t.Fatalf("α=1: zeroFrom = %d, want sigZeroNever", tab.zeroFrom)
	} else if got := tab.Term(maxSigTerms + 9); got != 1 {
		t.Fatalf("α=1: past-cap term = %v, want 1", got)
	}
}

// TestSharedSigTableRegistry pins the registry contract: one table per α,
// distinct tables across α.
func TestSharedSigTableRegistry(t *testing.T) {
	a, b := SharedSigTable(3.25), SharedSigTable(3.25)
	if a != b {
		t.Fatal("same α returned distinct shared tables")
	}
	if c := SharedSigTable(3.5); c == a {
		t.Fatal("distinct α shared one table")
	}
}
