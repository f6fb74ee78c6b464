package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"github.com/gautrais/stability"
)

// scoreKey names one scored window of one customer.
type scoreKey struct {
	customer stability.CustomerID
	k        int
}

// reference is a sequential Monitor replay of the feed under the
// drainer's close rule: every output the daemon produces is checked
// against it exactly.
type reference struct {
	// alerts is the delivery log a daemon fed the whole feed publishes.
	alerts []stability.SeqAlert
	// final is every customer's last stability, aligned with inputs.ids.
	final []stability.CustomerStability
	// snapshot is the SMN1 state after the feed (windows past the
	// watermark stay open, as Server.Close leaves them).
	snapshot []byte
	// scores holds every scored window's stability (kept for the core
	// pass of a traced run); order is the scoring order.
	scores map[scoreKey]float64
	order  []scoreKey
	// closer[k] is the feed index of the receipt whose month closes
	// window k.
	closer map[int]int
	// lastClosedK is the last window the feed's barriers close.
	lastClosedK int
	windows     int
}

// closeWindow is the drainer's close rule: the first receipt of month m
// closes every window ending at or before the start of m.
func closeWindow(grid stability.Grid, m int) int {
	return grid.Index(grid.Origin().AddDate(0, m, 0)) - 1
}

// replay runs the feed through a sequential Monitor with the drainer's
// close rule. keepScores records every scored window.
func replay(in *inputs, feed []receipt, keepScores bool) (*reference, error) {
	mon, err := stability.NewMonitor(in.monitor)
	if err != nil {
		return nil, err
	}
	ref := &reference{closer: map[int]int{}, lastClosedK: -1}
	if keepScores {
		ref.scores = make(map[scoreKey]float64)
	}
	mon.OnScored(func(s stability.ScoredWindow) {
		ref.windows++
		if keepScores {
			k := scoreKey{s.Customer, s.GridIndex}
			ref.scores[k] = s.Result.Stability
			ref.order = append(ref.order, k)
		}
	})
	maxMonth := math.MinInt
	var pending []stability.Alert
	publish := func() {
		sort.SliceStable(pending, func(i, j int) bool {
			if pending[i].GridIndex != pending[j].GridIndex {
				return pending[i].GridIndex < pending[j].GridIndex
			}
			return pending[i].Customer < pending[j].Customer
		})
		for _, a := range pending {
			ref.alerts = append(ref.alerts, stability.SeqAlert{Seq: uint64(len(ref.alerts)) + 1, Alert: a})
		}
		pending = pending[:0]
	}
	for i, r := range feed {
		if m := in.monthOf[i]; m > maxMonth {
			maxMonth = m
			if k := closeWindow(in.grid, m); k > ref.lastClosedK {
				for c := ref.lastClosedK + 1; c <= k; c++ {
					ref.closer[c] = i
				}
				pending = append(pending, mon.CloseThrough(k)...)
				publish()
				ref.lastClosedK = k
			}
		}
		a, err := mon.Ingest(r.customer, r.time, r.items)
		if err != nil {
			return nil, fmt.Errorf("reference replay: %w", err)
		}
		pending = append(pending, a...)
	}
	publish()
	ref.final = mon.Stabilities(in.ids, nil)
	var buf bytes.Buffer
	if err := mon.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	ref.snapshot = buf.Bytes()
	return ref, nil
}

// lastClosedBefore is the last window the close rule has closed once
// feed[:n] is ingested (-1 for none).
func lastClosedBefore(in *inputs, n int) int {
	if n == 0 {
		return -1
	}
	return max(closeWindow(in.grid, in.monthOf[n-1]), -1)
}

// alertsAfter returns the alerts of windows past k, renumbered from 1: what
// a restarted follower delivers once it suppresses the windows its
// restored state already published.
func (ref *reference) alertsAfter(k int) []stability.SeqAlert {
	var out []stability.SeqAlert
	for _, a := range ref.alerts {
		if a.GridIndex > k {
			out = append(out, stability.SeqAlert{Seq: uint64(len(out)) + 1, Alert: a.Alert})
		}
	}
	return out
}
