//go:build !race

// Follower allocation guard. Excluded under -race because the race runtime
// adds bookkeeping allocations.

package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/gautrais/stability/internal/retail"
)

// monthlyChainFile writes a chain of segments segments, each holding
// receiptsPer receipts for every one of customers customers, and returns
// its path.
func monthlyChainFile(t *testing.T, customers, segments, receiptsPer int) string {
	t.Helper()
	r := rand.New(rand.NewSource(int64(receiptsPer)))
	var chain bytes.Buffer
	for m := 0; m < segments; m++ {
		b := NewBuilder()
		for c := 0; c < customers; c++ {
			for k := 0; k < receiptsPer; k++ {
				items := make([]retail.ItemID, r.Intn(12)+1)
				for j := range items {
					items[j] = retail.ItemID(r.Intn(400) + 1)
				}
				ts := day(30*m + r.Intn(30)).Add(time.Duration(r.Intn(86400)) * time.Second)
				must(t, b.Add(retail.CustomerID(c*7+1), ts, items, 1))
			}
		}
		must(t, b.Build().WriteBinary(&chain))
	}
	path := filepath.Join(t.TempDir(), "chain.stb")
	must(t, os.WriteFile(path, chain.Bytes(), 0o644))
	return path
}

// TestFollowerPollAllocsFlatInReceipts: a catch-up poll allocates per
// customer and per segment, never per receipt. Two chains with the same
// customers and segments, one holding ten times the receipts, must cost
// the same number of allocations to poll whole.
func TestFollowerPollAllocsFlatInReceipts(t *testing.T) {
	allocs := func(path string, receipts int) float64 {
		return testing.AllocsPerRun(5, func() {
			st, err := NewFollower(nil, path).Poll()
			if err != nil || st.NumReceipts() != receipts {
				t.Fatalf("poll: %v", err)
			}
		})
	}
	const customers, segments = 60, 6
	small := allocs(monthlyChainFile(t, customers, segments, 2), customers*segments*2)
	large := allocs(monthlyChainFile(t, customers, segments, 20), customers*segments*20)
	if large > small {
		t.Fatalf("poll allocations grow with receipts: %v for 10x the receipts, %v for the base chain", large, small)
	}
	t.Logf("allocations per poll: %v (base chain), %v (10x receipts)", small, large)
}
