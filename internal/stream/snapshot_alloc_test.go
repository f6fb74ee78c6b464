//go:build !race

// Snapshot allocation guard. Excluded under -race because the race runtime
// adds bookkeeping allocations.

package stream

import (
	"io"
	"testing"
)

// TestWriteSnapshotAllocs: an SMN1 save appends every customer into one
// buffer, so its allocations do not grow with the customers written. On
// 1,000 customers a Monitor makes at most 8 and a 4-shard ShardedMonitor,
// which parks its shards for the write, at most 24.
func TestWriteSnapshotAllocs(t *testing.T) {
	cfg, feed, m := snapshotPopulation(t, 1000)
	_, s := replaySharded(t, cfg, 4, feed, snapshotLastK)
	defer s.Close()
	if n := m.Customers(); n != 1000 {
		t.Fatalf("%d customers tracked, want 1000", n)
	}
	for _, c := range []struct {
		name   string
		write  func(io.Writer) error
		budget float64
	}{
		{"monitor", m.WriteSnapshot, 8},
		{"shards-4", s.WriteSnapshot, 24},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if err := c.write(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.budget {
			t.Errorf("%s: WriteSnapshot of 1,000 customers allocates %.0f times, budget %.0f", c.name, allocs, c.budget)
		}
	}
}
