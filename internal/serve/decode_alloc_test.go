//go:build !race

// The race detector randomly drops sync.Pool items and adds its own
// allocations, so the allocation guard runs only without it.

package serve

import (
	"bytes"
	"testing"
)

// TestDecodeReceiptsAllocs pins the one-pass decode's allocation count:
// once the pooled scratch has grown, a request costs its events slice and
// its basket slab, whatever its receipt count.
func TestDecodeReceiptsAllocs(t *testing.T) {
	allocs := func(receipts int) float64 {
		body := canonicalBody(t, receipts, false)
		r := bytes.NewReader(body)
		return testing.AllocsPerRun(100, func() {
			r.Reset(body)
			if _, err := decodeReceipts(r, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(20), allocs(200)
	if large != small || large > 2 {
		t.Fatalf("decode allocs: %v for 20 receipts, %v for 200; want the same constant, at most 2", small, large)
	}
}
