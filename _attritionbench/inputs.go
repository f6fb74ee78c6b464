package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/gautrais/stability"
)

// workload is one traffic shape. The daemon settings are attritiond's
// defaults (block policy, 64-batch queue, 1m save and 2s flush tickers)
// with two shards, a state file and, outside follow mode, a journal.
type workload struct {
	name      string
	customers int
	months    int
	// batch is receipts per POST (and per batch in the layer passes).
	batch int
	// tailBatch is receipts per live-tail segment (restart).
	tailBatch int
	// writers is the number of closed-loop writer connections (ingest).
	writers int
	// queryBatch is the ids per POST /v1/stability:batch.
	queryBatch int
	// sweepQueries is the closed-loop query sweep after drain (ingest,
	// restart): score reads against the final state.
	sweepQueries int
	// stateMonths is the feed prefix the restored restart state covers;
	// tailMonths the months appended live after catch-up.
	stateMonths int
	tailMonths  int
	// follow marks the follow-mode restart workload.
	follow bool
	// minSamples is the floor under the POST and query samples: a run does
	// not stop before each has this many, so the logged POST p99 has ten
	// samples beyond it.
	minSamples int
	// setupProbes are the boots (boot, ready, stop) setup_s is the median
	// of; on restart they restore the SMN1 state over an empty chain.
	setupProbes int
	// followPoll is the follow-mode poll period.
	followPoll time.Duration
}

// The request sizes are cmd/loadgen's defaults: 200 receipts per POST and
// 200 ids per batch query (its -query-mix chunk). A restart tail segment
// holds 2000 receipts, ten of loadgen's -follow segments, so that decoding
// and ingesting one (~7 ms on a 2-vCPU host) outweighs the 1 ms poll tick.
var workloads = map[string]workload{
	"ingest": {
		name: "ingest", customers: 2000, months: 24, batch: 200, writers: 2,
		queryBatch: 200, sweepQueries: 300, minSamples: 1000, setupProbes: 24,
	},
	"restart": {
		name: "restart", customers: 4000, months: 24, batch: 200, tailBatch: 2000,
		queryBatch: 200, sweepQueries: 300, stateMonths: 8, tailMonths: 8, follow: true,
		minSamples: 1000, setupProbes: 16, followPoll: time.Millisecond,
	},
}

// Model settings shared by the daemon and the reference replay; they are
// cmd/loadgen's defaults.
const (
	spanMonths = 2
	alpha      = 2.0
	beta       = 0.6
	topJ       = 3
	warmup     = 4
	shards     = 2
)

// receipt is one feed entry; items alias the generated store.
type receipt struct {
	customer stability.CustomerID
	time     time.Time
	items    stability.Basket
}

// bodyRef locates one pre-encoded request body (or STB1 segment) in an
// input file. Bodies live in files and are read into a reused buffer per
// connection, so they never sit on the daemon's heap.
type bodyRef struct {
	off      int64
	size     int
	receipts int
	// first is the feed index of the body's first receipt.
	first int
}

// inputs is everything a run needs, prepared from the seed before timing.
type inputs struct {
	grid    stability.Grid
	monitor stability.MonitorConfig
	ids     []stability.CustomerID
	// fed is the receipts the daemon must ingest per episode.
	fed int
	// bodies holds every pre-encoded request body.
	bodies *os.File
	// phases[m][w] are writer w's POST bodies for month m (ingest).
	phases [][][]bodyRef
	// stream are the POST bodies in feed order, for the handler pass of a
	// traced run.
	stream []bodyRef
	// queries cycle once over every customer id.
	queries []bodyRef
	// monthOf is each feed receipt's month index.
	monthOf []int
	// restart: the chain (prefix + backlog) and its byte size, the live
	// tail segments in tail, the prepared state file and its watermark.
	chain     string
	chainSize int64
	tail      []bodyRef
	tailFile  *os.File
	stateOrig string
	backlog   int // receipts in the chain at restart
	suppressK int // windows the restored state already delivered
	catchUpWM int // watermark once the chain is replayed
	// segEnds is the cumulative receipt count at the end of each segment,
	// chain segments first, then the tail's; chainSegs counts the former.
	segEnds   []int
	chainSegs int
}

func (in *inputs) close() {
	if in.bodies != nil {
		in.bodies.Close()
	}
	if in.tailFile != nil {
		in.tailFile.Close()
	}
}

// generate synthesizes the workload's dataset from seed, with attrition
// onset at 2/3 of the months as cmd/loadgen sets it, and flattens it into
// a time-ordered feed (ties by customer id, then per-customer order: the
// order a follower replays a chain in).
func generate(w workload, seed int64) ([]receipt, stability.Grid, []stability.CustomerID, error) {
	cfg := stability.DefaultSampleConfig()
	cfg.Seed = seed
	cfg.Customers = w.customers
	cfg.Months = w.months
	cfg.OnsetMonth = w.months * 2 / 3
	ds, err := stability.GenerateSample(cfg)
	if err != nil {
		return nil, stability.Grid{}, nil, err
	}
	min, _, ok := ds.Store.TimeRange()
	if !ok {
		return nil, stability.Grid{}, nil, fmt.Errorf("generated dataset is empty")
	}
	grid, err := stability.NewGrid(min, spanMonths)
	if err != nil {
		return nil, stability.Grid{}, nil, err
	}
	feed := make([]receipt, 0, ds.Store.NumReceipts())
	ds.Store.Each(func(h stability.History) bool {
		for _, r := range h.Receipts {
			feed = append(feed, receipt{customer: h.Customer, time: r.Time, items: r.Items})
		}
		return true
	})
	sort.SliceStable(feed, func(i, j int) bool { return feed[i].time.Before(feed[j].time) })
	return feed, grid, ds.Store.Customers(), nil
}

func monitorConfig(grid stability.Grid) stability.MonitorConfig {
	return stability.MonitorConfig{
		Grid:          grid,
		Model:         stability.Options{Alpha: alpha},
		Beta:          beta,
		TopJ:          topJ,
		WarmupWindows: warmup,
	}
}

// serverConfig is the daemon configuration of every episode.
func (w workload) serverConfig(in *inputs, dir string) stability.ServerConfig {
	cfg := stability.ServerConfig{
		Monitor:       in.monitor,
		Shards:        shards,
		QueueBatches:  64,
		Policy:        stability.IngestBlock,
		StatePath:     filepath.Join(dir, "state.smn"),
		SaveInterval:  time.Minute,
		FlushInterval: 2 * time.Second,
	}
	if w.follow {
		cfg.FollowPath = in.chain
		cfg.FollowInterval = w.followPoll
	} else {
		cfg.JournalPath = filepath.Join(dir, "journal.stb")
	}
	return cfg
}

// wireReceipt is a receipt in the POST /v1/receipts body.
type wireReceipt struct {
	Customer uint64           `json:"customer"`
	Time     time.Time        `json:"time"`
	Items    stability.Basket `json:"items"`
}

// bodyWriter appends pre-encoded bodies to one file. A failed write
// sticks in the bufio.Writer and surfaces at Flush.
type bodyWriter struct {
	bw  *bufio.Writer
	off int64
}

func (b *bodyWriter) add(body []byte, receipts, first int) bodyRef {
	ref := bodyRef{off: b.off, size: len(body), receipts: receipts, first: first}
	b.bw.Write(body)
	b.off += int64(len(body))
	return ref
}

// receiptsBody encodes one POST /v1/receipts body.
func (b *bodyWriter) receiptsBody(feed []receipt, idx []int) (bodyRef, error) {
	rs := make([]wireReceipt, len(idx))
	for i, j := range idx {
		rs[i] = wireReceipt{Customer: uint64(feed[j].customer), Time: feed[j].time, Items: feed[j].items}
	}
	body, err := json.Marshal(struct {
		Receipts []wireReceipt `json:"receipts"`
	}{rs})
	if err != nil {
		return bodyRef{}, err
	}
	return b.add(body, len(idx), idx[0]), nil
}

// prepare builds the run's inputs in dir. It returns the feed too: the
// reference replay and the layer passes need it, untraced runs drop it
// before timing starts.
func prepare(w workload, seed int64, dir string, traced bool) (*inputs, []receipt, error) {
	feed, grid, ids, err := generate(w, seed)
	if err != nil {
		return nil, nil, err
	}
	in := &inputs{grid: grid, monitor: monitorConfig(grid), ids: ids, fed: len(feed)}
	in.monthOf = make([]int, len(feed))
	for i, r := range feed {
		in.monthOf[i] = grid.MonthIndex(r.time)
	}
	f, err := os.Create(filepath.Join(dir, "bodies.bin"))
	if err != nil {
		return nil, nil, err
	}
	in.bodies = f
	bw := &bodyWriter{bw: bufio.NewWriterSize(f, 1<<20)}
	if err := in.writeBodies(w, feed, bw, traced); err != nil {
		in.close()
		return nil, nil, err
	}
	if err := bw.bw.Flush(); err != nil {
		in.close()
		return nil, nil, err
	}
	if w.follow {
		if err := in.prepareChain(w, feed, dir); err != nil {
			in.close()
			return nil, nil, err
		}
	}
	return in, feed, nil
}

func (in *inputs) writeBodies(w workload, feed []receipt, bw *bodyWriter, traced bool) error {
	if w.writers > 0 {
		months := in.monthOf[len(feed)-1] + 1
		in.phases = make([][][]bodyRef, months)
		parts := make([][]int, w.writers)
		flush := func(m int) error {
			in.phases[m] = make([][]bodyRef, w.writers)
			for wr, part := range parts {
				for lo := 0; lo < len(part); lo += w.batch {
					hi := min(lo+w.batch, len(part))
					ref, err := bw.receiptsBody(feed, part[lo:hi])
					if err != nil {
						return err
					}
					in.phases[m][wr] = append(in.phases[m][wr], ref)
				}
				parts[wr] = parts[wr][:0]
			}
			return nil
		}
		cur := 0
		for i, r := range feed {
			if m := in.monthOf[i]; m != cur {
				if err := flush(cur); err != nil {
					return err
				}
				cur = m
			}
			wr := int(uint64(r.customer) % uint64(w.writers))
			parts[wr] = append(parts[wr], i)
		}
		if err := flush(cur); err != nil {
			return err
		}
	}
	if traced {
		idx := make([]int, 0, w.batch)
		for lo := 0; lo < len(feed); lo += w.batch {
			idx = idx[:0]
			for j := lo; j < min(lo+w.batch, len(feed)); j++ {
				idx = append(idx, j)
			}
			ref, err := bw.receiptsBody(feed, idx)
			if err != nil {
				return err
			}
			in.stream = append(in.stream, ref)
		}
	}
	var sb strings.Builder
	for lo := 0; lo < len(in.ids); lo += w.queryBatch {
		sb.Reset()
		hi := min(lo+w.queryBatch, len(in.ids))
		for _, id := range in.ids[lo:hi] {
			fmt.Fprintf(&sb, "{\"customer\":%d}\n", uint64(id))
		}
		in.queries = append(in.queries, bw.add([]byte(sb.String()), hi-lo, lo))
	}
	return nil
}

// segment encodes feed[lo:hi] as one STB1 segment.
func segment(feed []receipt, lo, hi int) ([]byte, error) {
	b := stability.NewStoreBuilder()
	for _, r := range feed[lo:hi] {
		if err := b.Add(r.customer, r.time, r.items, 0); err != nil {
			return nil, err
		}
	}
	var buf strings.Builder
	if err := stability.WriteSnapshot(&buf, b.Build()); err != nil {
		return nil, err
	}
	return []byte(buf.String()), nil
}

// prepareChain writes the restart inputs: an STB1 chain with one segment
// per month, the SMN1 state an earlier follow run left after the first
// stateMonths, and the live tail's segments (one per tailBatch receipts of the
// last tailMonths), which episodes append after catch-up.
func (in *inputs) prepareChain(w workload, feed []receipt, dir string) error {
	tailStart := sort.Search(len(feed), func(i int) bool { return in.monthOf[i] >= w.months-w.tailMonths })
	stateEnd := sort.Search(len(feed), func(i int) bool { return in.monthOf[i] >= w.stateMonths })
	in.chain = filepath.Join(dir, "chain.stb")
	in.stateOrig = filepath.Join(dir, "state.orig")
	chain, err := os.Create(in.chain)
	if err != nil {
		return err
	}
	defer chain.Close()
	appendMonths := func(lo, hi int) error {
		for lo < hi {
			end := lo
			for end < hi && in.monthOf[end] == in.monthOf[lo] {
				end++
			}
			seg, err := segment(feed, lo, end)
			if err != nil {
				return err
			}
			if _, err := chain.Write(seg); err != nil {
				return err
			}
			in.segEnds = append(in.segEnds, end)
			lo = end
		}
		return nil
	}
	if err := appendMonths(0, stateEnd); err != nil {
		return err
	}
	if err := earlierFollowRun(in, stateEnd, filepath.Join(dir, "earlier.smn")); err != nil {
		return err
	}
	if err := os.Rename(filepath.Join(dir, "earlier.smn"), in.stateOrig); err != nil {
		return err
	}
	if err := appendMonths(stateEnd, tailStart); err != nil {
		return err
	}
	info, err := chain.Stat()
	if err != nil {
		return err
	}
	in.chainSize = info.Size()
	in.backlog = tailStart
	in.chainSegs = len(in.segEnds)
	in.suppressK = lastClosedBefore(in, stateEnd)
	in.catchUpWM = lastClosedBefore(in, tailStart) + 1

	tf, err := os.Create(filepath.Join(dir, "tail.bin"))
	if err != nil {
		return err
	}
	in.tailFile = tf
	var off int64
	for lo := tailStart; lo < len(feed); lo += w.tailBatch {
		hi := min(lo+w.tailBatch, len(feed))
		seg, err := segment(feed, lo, hi)
		if err != nil {
			return err
		}
		if _, err := tf.Write(seg); err != nil {
			return err
		}
		in.tail = append(in.tail, bodyRef{off: off, size: len(seg), receipts: hi - lo, first: lo})
		in.segEnds = append(in.segEnds, hi)
		off += int64(len(seg))
	}
	return nil
}

// earlierFollowRun is the follow-mode daemon run that left the restart
// state: it tails the chain's first part, catches up and persists SMN1.
func earlierFollowRun(in *inputs, receipts int, state string) error {
	ing, err := stability.NewIngestor(stability.IngestorConfig{
		Monitor:        in.monitor,
		Shards:         shards,
		StatePath:      state,
		FollowPath:     in.chain,
		FollowInterval: time.Millisecond,
	})
	if err != nil {
		return err
	}
	deadline := now().Add(2 * time.Minute)
	for ing.Metrics().ReceiptsIngested < uint64(receipts) {
		if now().After(deadline) {
			ing.Close()
			return fmt.Errorf("earlier follow run never ingested %d receipts", receipts)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return ing.Close()
}

// resetRestart puts the chain and the state file back to their prepared
// form: the previous episode appended the live tail and saved new state.
func (in *inputs) resetRestart(statePath string) error {
	if err := os.Truncate(in.chain, in.chainSize); err != nil {
		return err
	}
	return in.copyState(statePath)
}

// copyState writes the prepared restart state to statePath.
func (in *inputs) copyState(statePath string) error {
	src, err := os.Open(in.stateOrig)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(statePath)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}
