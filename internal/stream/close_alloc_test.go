//go:build !race

// Barrier allocation guard: scoring a window that does not alert builds no
// explanation, so a steady-state barrier allocates nothing per customer.
// Excluded under -race because the race runtime adds bookkeeping
// allocations.

package stream

import (
	"testing"

	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/retail"
)

// TestCloseThroughNonAlertingAllocFree: once every customer is tracked and
// indexed, a CloseThrough whose windows neither alert nor bring new items
// allocates nothing. Two shapes: silent customers kept from alerting by
// warm-up (empty windows, stability 0), and loyal customers who buy the
// same basket every window (stability 1 > β), closed through Ingest.
func TestCloseThroughNonAlertingAllocFree(t *testing.T) {
	const customers = 200
	g := testGrid(t)
	basket := retail.NewBasket([]retail.ItemID{1, 2, 3, 4, 5, 6, 7, 8})

	t.Run("silent-warmup", func(t *testing.T) {
		m, err := New(Config{Grid: g, Model: core.Options{Alpha: 2}, Beta: 0.6, TopJ: 3, WarmupWindows: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		for c := 1; c <= customers; c++ {
			if _, err := m.Ingest(retail.CustomerID(c), at(g, 0, 1), basket); err != nil {
				t.Fatal(err)
			}
		}
		k := 0
		m.CloseThrough(k) // index the customers, score the undefined first window
		allocs := testing.AllocsPerRun(50, func() {
			k++
			if a := m.CloseThrough(k); len(a) != 0 {
				t.Fatalf("window %d raised %d alerts", k, len(a))
			}
		})
		if allocs != 0 {
			t.Fatalf("non-alerting CloseThrough allocates %.2f times per barrier over %d customers, want 0", allocs, customers)
		}
	})

	t.Run("loyal", func(t *testing.T) {
		m, err := New(Config{Grid: g, Model: core.Options{Alpha: 2}, Beta: 0.6, TopJ: 3})
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		step := func() {
			for c := 1; c <= customers; c++ {
				a, err := m.Ingest(retail.CustomerID(c), at(g, k, 1), basket)
				if err != nil || len(a) != 0 {
					t.Fatalf("window %d customer %d: %d alerts, err %v", k, c, len(a), err)
				}
			}
			if a := m.CloseThrough(k - 1); len(a) != 0 {
				t.Fatalf("barrier %d raised %d alerts", k-1, len(a))
			}
			k++
		}
		for i := 0; i < 4; i++ { // track, index and settle every customer
			step()
		}
		if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
			t.Fatalf("loyal-customer windows allocate %.2f times per barrier over %d customers, want 0", allocs, customers)
		}
	})
}
