//go:build !race

// Metrics allocation guard. Excluded under -race because the race runtime
// adds bookkeeping allocations.

package stream

import "testing"

// TestMetricsOneShardFanOut: a Metrics snapshot reads the evicted and
// retained counts in one visit of the shards, so it allocates no more
// than one Customers call does.
func TestMetricsOneShardFanOut(t *testing.T) {
	ing, err := NewIngestor(ingestorConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	feed := randomFeed(t, 9, 12, 300)
	enqueueAll(t, ing, feed, 50)
	waitFor(t, "the feed to drain", func() bool {
		return ing.Metrics().ReceiptsIngested == uint64(len(feed))
	})
	customers := testing.AllocsPerRun(100, func() { ing.Customers() })
	metrics := testing.AllocsPerRun(100, func() { ing.Metrics() })
	if metrics > customers {
		t.Errorf("Metrics allocates %.0f times, one Customers call %.0f: more than one shard fan-out", metrics, customers)
	}
}
