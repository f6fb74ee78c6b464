//go:build !race

package stability_test

import "testing"

// TestMonitorHeapPerCustomer holds a plain Monitor's heap per tracked
// customer under budget on the heap probe's feed (see heapProbeFeed) at
// 2,000 customers. The race detector inflates every allocation, so the
// test runs only without it.
func TestMonitorHeapPerCustomer(t *testing.T) {
	const budget = 1500 // bytes per customer
	cfg, feed := heapProbeFeed(t, 2000)
	if per := monitorHeapPerCustomer(t, cfg, feed); per > budget {
		t.Fatalf("monitor holds %.0f B per customer, budget %d", per, budget)
	} else {
		t.Logf("monitor holds %.0f B per customer (budget %d)", per, budget)
	}
}
