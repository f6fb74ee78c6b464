//go:build !race

// ReadBinary allocation guard. Excluded under -race because the race
// runtime adds bookkeeping allocations.

package store

import (
	"bytes"
	"os"
	"testing"
)

// TestReadBinaryOneSegmentAllocs: a one-segment file lists its customers
// in ascending order, so decoding it lays the receipts out in arrival order
// with no grouping map. What is left is reading the bytes, growing the run
// list, the layout and the two slabs, and the store's index: 37 allocations
// for 600 customers. The grouping map's path made 76.
func TestReadBinaryOneSegmentAllocs(t *testing.T) {
	const customers, budget = 600, 45
	data, err := os.ReadFile(monthlyChainFile(t, customers, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		st, err := ReadBinary(bytes.NewReader(data))
		if err != nil || st.NumReceipts() != customers*3 {
			t.Fatalf("read: %v", err)
		}
	})
	if allocs > budget {
		t.Fatalf("one-segment ReadBinary of %d customers made %v allocations, budget %d", customers, allocs, budget)
	}
}
