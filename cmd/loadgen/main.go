// Command loadgen load-tests an attritiond daemon: it synthesizes a
// labelled retail dataset, replays it month by month over concurrent
// connections as batched POST /v1/receipts calls, measures ingestion and
// query latency, and then verifies the daemon's answers — per-customer
// stabilities, the alert stream, and the /metrics counters — against a
// local sequential Monitor replay of the same feed.
//
//	loadgen -addr http://localhost:8080 -customers 400 -months 12
//	loadgen -customers 400 -months 12        # self-serve: in-process daemon
//
// With no -addr, loadgen spins up an in-process daemon (httptest) so
// `make loadtest` needs no running server. Months are replayed in phase —
// all connections finish month m before any posts month m+1 — because the
// daemon's watermark closes windows as months advance, and a connection
// racing months ahead would turn slower connections' receipts stale. The
// replayed feed is deterministic in -seed, so the verification step is
// exact, not statistical: any mismatch exits non-zero.
//
// With -query-mix, loadgen interleaves POST /v1/stability:batch queries
// with the ingestion replay: at every month barrier (once the daemon has
// drained the month) it batch-queries every customer and requires each
// answer to match a shadow sequential replay exactly — the read path is
// exercised while the write path is hot, and the comparison stays exact
// because scoring only happens at deterministic window-close barriers.
//
// With -follow, the in-process daemon ingests by tailing an STB1 snapshot
// chain instead of HTTP: loadgen plays the external snapshot writer,
// appending the feed in month order, one segment per -batch receipts, from
// a single writer (POST /v1/receipts answers 409 in this mode). Halfway
// through, the chain is compacted in place (-follow-compact), driving the
// daemon's follower through its resync protocol mid-load; verification
// afterwards is the same exact comparison against the sequential replay.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/gautrais/stability"
	"github.com/gautrais/stability/internal/population"
	"github.com/gautrais/stability/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// now reads the wall clock for latency and throughput telemetry.
//
//detlint:ignore R2 load-test latency/throughput measurement; durations are reported to the operator, never fed into scored output
func now() time.Time { return time.Now() }

type options struct {
	addr      string
	customers int
	months    int
	seed      int64
	conns     int
	batch     int
	queries   int
	span      int
	alpha     float64
	beta      float64
	topJ      int
	warmup    int
	shards    int
	retention int
	churn     float64
	verify    bool

	queryMix bool

	follow        bool
	followPoll    time.Duration
	followCompact bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.addr, "addr", "", "daemon base URL (e.g. http://localhost:8080); empty runs an in-process daemon")
	fs.IntVar(&o.customers, "customers", 400, "synthetic customers")
	fs.IntVar(&o.months, "months", 12, "synthetic months")
	fs.Int64Var(&o.seed, "seed", 1, "dataset seed (verification is exact for any seed)")
	fs.IntVar(&o.conns, "conns", 4, "concurrent ingesting connections")
	fs.IntVar(&o.batch, "batch", 200, "receipts per POST")
	fs.IntVar(&o.queries, "queries", 400, "stability queries to issue after ingestion")
	fs.IntVar(&o.span, "span", 2, "window span in months (must match the daemon)")
	fs.Float64Var(&o.alpha, "alpha", 2, "significance base α (must match the daemon)")
	fs.Float64Var(&o.beta, "beta", 0.6, "loyalty threshold (must match the daemon)")
	fs.IntVar(&o.topJ, "top", 3, "blamed products per alert (must match the daemon)")
	fs.IntVar(&o.warmup, "warmup", 4, "warm-up windows (must match the daemon)")
	fs.IntVar(&o.shards, "shards", 0, "shards for the in-process daemon; 0 = GOMAXPROCS")
	fs.IntVar(&o.retention, "retention", 0, "retention horizon in windows (must match the daemon); 0 keeps everyone forever")
	fs.Float64Var(&o.churn, "churn", 0, "fraction of customers silenced halfway through the feed (gives -retention something to evict; 0 disables)")
	fs.BoolVar(&o.verify, "verify", true, "verify daemon answers against a sequential replay")
	fs.BoolVar(&o.queryMix, "query-mix", false, "interleave POST /v1/stability:batch queries with ingestion at every month barrier, exact-verifying each answer against a shadow sequential replay")
	fs.BoolVar(&o.follow, "follow", false, "drive the in-process daemon by tailing an STB1 chain instead of POSTing (needs empty -addr)")
	fs.DurationVar(&o.followPoll, "follow-poll", 2*time.Millisecond, "follow-mode poll period of the in-process daemon")
	fs.BoolVar(&o.followCompact, "follow-compact", true, "compact the tailed chain halfway through a -follow run, forcing a live resync")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.conns < 1 || o.batch < 1 {
		return o, fmt.Errorf("need -conns >= 1 and -batch >= 1")
	}
	if o.follow && o.addr != "" {
		return o, fmt.Errorf("-follow drives an in-process daemon; drop -addr")
	}
	if o.queryMix && o.follow {
		return o, fmt.Errorf("-query-mix interleaves with HTTP ingestion; drop -follow")
	}
	if o.follow && o.followCompact && o.retention > 0 {
		// A resync rebuilds the monitor and carries evictions forward as a
		// base count, so the eviction comparison against one sequential
		// replay is no longer exact. Keep the modes separate.
		return o, fmt.Errorf("-follow-compact needs -retention 0 (use -follow-compact=false with a retention horizon)")
	}
	return o, nil
}

// monitorConfig is the model configuration the in-process daemon and the
// reference replay share.
func (o options) monitorConfig(grid stability.Grid) stability.MonitorConfig {
	return stability.MonitorConfig{
		Grid:             grid,
		Model:            stability.Options{Alpha: o.alpha},
		Beta:             o.beta,
		TopJ:             o.topJ,
		WarmupWindows:    o.warmup,
		RetentionWindows: o.retention,
	}
}

// receipt is one wire receipt of the replayed feed.
type receipt struct {
	Customer uint64    `json:"customer"`
	Time     time.Time `json:"time"`
	Items    []uint32  `json:"items"`
}

// basket returns the receipt's items as a normalized basket.
func (rc receipt) basket() stability.Basket {
	items := make([]stability.ItemID, len(rc.Items))
	for i, it := range rc.Items {
		items[i] = stability.ItemID(it)
	}
	return stability.NewBasket(items)
}

// hist is a power-of-two-microsecond latency histogram.
type hist struct {
	buckets [40]uint64
	count   uint64
	total   time.Duration
	max     time.Duration
}

func (h *hist) observe(d time.Duration) {
	h.buckets[bits.Len64(uint64(d.Microseconds()))]++
	h.count++
	h.total += d
	if d > h.max {
		h.max = d
	}
}

func (h *hist) merge(o *hist) {
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
	h.count += o.count
	h.total += o.total
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the upper bound of the bucket holding quantile q.
func (h *hist) quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	seen := uint64(0)
	for i, n := range h.buckets {
		seen += n
		if seen > target {
			return time.Duration(uint64(1)<<i) * time.Microsecond
		}
	}
	return h.max
}

func (h *hist) String() string {
	if h.count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("p50<=%v p90<=%v p99<=%v max=%v mean=%v",
		h.quantile(0.50), h.quantile(0.90), h.quantile(0.99), h.max,
		(h.total / time.Duration(h.count)).Round(time.Microsecond))
}

func run(args []string, out io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}

	cfg := stability.DefaultSampleConfig()
	cfg.Seed = o.seed
	cfg.Customers = o.customers
	cfg.Months = o.months
	cfg.OnsetMonth = o.months * 2 / 3
	ds, err := stability.GenerateSample(cfg)
	if err != nil {
		return err
	}
	feed, grid, err := sortedFeed(ds, o.span)
	if err != nil {
		return err
	}
	if o.churn > 0 {
		before := len(feed)
		feed = applyChurn(feed, grid, o.churn, o.months)
		fmt.Fprintf(out, "churn: silenced ~%.0f%% of customers after month %d (%d receipts dropped)\n",
			o.churn*100, o.months/2, before-len(feed))
	}
	fmt.Fprintf(out, "dataset: %d customers, %d receipts, %d months (seed %d)\n",
		ds.Store.NumCustomers(), len(feed), o.months, o.seed)

	var followPath string
	if o.follow {
		dir, err := os.MkdirTemp("", "loadgen-follow")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		followPath = filepath.Join(dir, "feed.stb")
	}

	base := o.addr
	var srv *stability.Server
	if base == "" {
		s, err := stability.NewServer(stability.ServerConfig{
			Monitor:        o.monitorConfig(grid),
			Shards:         o.shards,
			FollowPath:     followPath,
			FollowInterval: o.followPoll,
		})
		if err != nil {
			return err
		}
		srv = s
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer s.Close()
		base = ts.URL
		fmt.Fprintf(out, "self-serve daemon at %s (%d shards)\n", base, o.shards)
	}
	base = strings.TrimSuffix(base, "/")

	// How many receipts the daemon must count as ingested: a mid-run
	// compaction makes the follower replay the whole chain (cut receipts at
	// that point) through a fresh monitor, so they are counted twice.
	wantIngested := uint64(len(feed))
	if o.follow {
		cut, elapsed, err := followReplay(base, followPath, feed, o, out)
		if err != nil {
			return err
		}
		wantIngested += uint64(cut)
		rate := float64(len(feed)) / elapsed.Seconds()
		fmt.Fprintf(out, "follow: %d receipts appended in %v = %.0f receipts/sec through the tailed chain\n",
			len(feed), elapsed.Round(time.Millisecond), rate)
	} else {
		var mix *queryMixer
		if o.queryMix {
			ref, err := newShadow(grid, o)
			if err != nil {
				return err
			}
			mix = &queryMixer{base: base, ref: ref, ids: ds.Store.Customers(), chunk: o.batch, hist: &hist{}}
		}
		ingestHist, elapsed, retries, err := replay(base, feed, grid, o, mix)
		if err != nil {
			return err
		}
		rate := float64(len(feed)) / elapsed.Seconds()
		fmt.Fprintf(out, "ingest: %d receipts in %v over %d conns = %.0f receipts/sec (%d retries after 429)\n",
			len(feed), elapsed.Round(time.Millisecond), o.conns, rate, retries)
		fmt.Fprintf(out, "ingest latency per POST (%d receipts each): %s\n", o.batch, ingestHist)
		if mix != nil {
			fmt.Fprintf(out, "query-mix: %d batch queries (%d scored answers) interleaved with ingestion, exact match\n",
				mix.batches, mix.scores)
			fmt.Fprintf(out, "query-mix batch latency: %s\n", mix.hist)
		}
	}

	if err := awaitDrain(base, wantIngested); err != nil {
		return err
	}
	if o.follow {
		var m metricsSnapshot
		if err := getJSON(base, "/metrics", &m); err != nil {
			return err
		}
		if o.followCompact && m.FollowResyncs == 0 {
			return fmt.Errorf("chain was compacted mid-run but the daemon never resynced")
		}
		fmt.Fprintf(out, "follow: %d polls, %d resyncs\n", m.FollowPolls, m.FollowResyncs)
	}

	ids := ds.Store.Customers()
	queryHist, err := queryStabilities(base, ids, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "query latency (%d GETs): %s\n", queryHist.count, queryHist)

	if o.verify {
		if err := verify(base, feed, grid, ids, o, wantIngested, out); err != nil {
			return fmt.Errorf("verification failed: %w", err)
		}
		fmt.Fprintln(out, "verification: daemon matches sequential replay")
	}
	if srv != nil {
		if err := srv.Close(); err != nil {
			return err
		}
	}
	return nil
}

// applyChurn silences a deterministic fraction of customers (by id
// residue) after the feed's halfway month. The synthetic defectors drop
// product segments but keep shopping, so without churn no customer ever
// goes fully silent and a retention horizon has nothing to evict.
func applyChurn(feed []receipt, grid stability.Grid, frac float64, months int) []receipt {
	cutMonth := months / 2
	silenced := uint64(frac * 100)
	out := feed[:0]
	for _, rc := range feed {
		if rc.Customer%100 < silenced && grid.MonthIndex(rc.Time) > cutMonth {
			continue
		}
		out = append(out, rc)
	}
	return out
}

// sortedFeed flattens the dataset into one receipt slice ordered by month,
// then customer id, each customer's receipts in time order, and anchors
// the window grid at the earliest receipt. Every mode plays the feed month
// by month, and the daemon scores a window by the baskets in it, so the
// order within a month reaches no output.
func sortedFeed(ds *stability.SampleDataset, span int) ([]receipt, stability.Grid, error) {
	min, _, ok := ds.Store.TimeRange()
	if !ok {
		return nil, stability.Grid{}, fmt.Errorf("generated dataset is empty")
	}
	grid, err := stability.NewGrid(min, span)
	if err != nil {
		return nil, stability.Grid{}, err
	}
	feed := make([]receipt, 0, ds.Store.NumReceipts())
	store.EachByMonth(ds.Store, grid.MonthIndex, func(id stability.CustomerID, r stability.Receipt, _ int) bool {
		items := make([]uint32, len(r.Items))
		for i, it := range r.Items {
			items[i] = uint32(it)
		}
		feed = append(feed, receipt{Customer: uint64(id), Time: r.Time, Items: items})
		return true
	})
	return feed, grid, nil
}

// replay posts the feed month by month: each month's receipts are
// partitioned by customer across o.conns workers (preserving per-customer
// order within the month) and the month boundary is a barrier, so the
// daemon's watermark can never race ahead of a slow connection. A non-nil
// mix issues exact-verified batch stability queries at each barrier.
func replay(base string, feed []receipt, grid stability.Grid, o options, mix *queryMixer) (*hist, time.Duration, uint64, error) {
	var months [][]receipt
	for _, rc := range feed {
		m := grid.MonthIndex(rc.Time)
		for len(months) <= m {
			months = append(months, nil)
		}
		months[m] = append(months[m], rc)
	}
	agg := &hist{}
	var retries atomic.Uint64
	start := now()
	for m, month := range months {
		if len(month) == 0 {
			continue
		}
		parts := make([][]receipt, o.conns)
		for _, rc := range month {
			w := int(rc.Customer % uint64(o.conns))
			parts[w] = append(parts[w], rc)
		}
		results, err := population.Map(o.conns, population.Options{Workers: o.conns}, func(w int) (*hist, error) {
			h := &hist{}
			part := parts[w]
			for lo := 0; lo < len(part); lo += o.batch {
				hi := lo + o.batch
				if hi > len(part) {
					hi = len(part)
				}
				if err := postBatch(base, part[lo:hi], h, &retries); err != nil {
					return nil, fmt.Errorf("month %d conn %d: %w", m, w, err)
				}
			}
			return h, nil
		})
		if err != nil {
			return nil, 0, 0, err
		}
		for _, h := range results {
			agg.merge(h)
		}
		if mix != nil {
			if err := mix.month(month); err != nil {
				return nil, 0, 0, fmt.Errorf("query-mix after month %d: %w", m, err)
			}
		}
	}
	return agg, now().Sub(start), retries.Load(), nil
}

// shadow is the reference replay the daemon is checked against: a
// sequential Monitor fed under the daemon's close rule (when a receipt's
// month passes every month seen, close every window that ended by that
// month's start), logging each barrier's alerts sorted by (window,
// customer), the daemon's delivery order. It stays independent of the
// daemon's pipeline so that it can check it.
type shadow struct {
	grid        stability.Grid
	mon         *stability.Monitor
	maxMonth    int
	lastClosedK int
	// pending holds alerts Ingest raised since the last barrier; alerts is
	// the log of every barrier's alerts.
	pending []stability.Alert
	alerts  []stability.Alert
}

func newShadow(grid stability.Grid, o options) (*shadow, error) {
	mon, err := stability.NewMonitor(o.monitorConfig(grid))
	if err != nil {
		return nil, err
	}
	return &shadow{grid: grid, mon: mon, maxMonth: -1, lastClosedK: -1}, nil
}

// feed replays receipts in order, firing the close barriers they cross.
func (s *shadow) feed(receipts []receipt) error {
	for _, rc := range receipts {
		if m := s.grid.MonthIndex(rc.Time); m > s.maxMonth {
			s.maxMonth = m
			if closeK := s.grid.Index(s.grid.Origin().AddDate(0, m, 0)) - 1; closeK > s.lastClosedK {
				batch := append(s.pending, s.mon.CloseThrough(closeK)...)
				sort.Slice(batch, func(i, j int) bool {
					if batch[i].GridIndex != batch[j].GridIndex {
						return batch[i].GridIndex < batch[j].GridIndex
					}
					return batch[i].Customer < batch[j].Customer
				})
				s.alerts = append(s.alerts, batch...)
				s.pending = nil
				s.lastClosedK = closeK
			}
		}
		a, err := s.mon.Ingest(stability.CustomerID(rc.Customer), rc.Time, rc.basket())
		if err != nil {
			return err
		}
		s.pending = append(s.pending, a...)
	}
	return nil
}

// queryMixer interleaves batch stability queries with ingestion: at every
// month barrier it waits for the daemon to drain the month, feeds the same
// receipts to a shadow replay, then POSTs /v1/stability:batch for every
// customer and requires each NDJSON row to match the shadow monitor bit
// for bit. Month barriers are the points where the daemon's state is a
// deterministic function of the feed (within a month receipts race across
// connections, but window scoring happens only at close barriers), so the
// comparison is exact, not statistical.
type queryMixer struct {
	base    string
	ref     *shadow
	ids     []stability.CustomerID
	chunk   int
	posted  uint64
	batches int
	scores  int
	hist    *hist
}

// month absorbs one fully-posted month: shadow-replay, drain, query, compare.
func (x *queryMixer) month(month []receipt) error {
	if err := x.ref.feed(month); err != nil {
		return err
	}
	x.posted += uint64(len(month))
	if err := awaitDrain(x.base, x.posted); err != nil {
		return err
	}
	for lo := 0; lo < len(x.ids); lo += x.chunk {
		hi := lo + x.chunk
		if hi > len(x.ids) {
			hi = len(x.ids)
		}
		if err := x.queryChunk(x.ids[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// queryChunk posts one NDJSON batch and verifies every row positionally
// against the shadow monitor. Scored rows must match value and window
// exactly; unscored customers must come back as error rows and vice versa.
func (x *queryMixer) queryChunk(ids []stability.CustomerID) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, id := range ids {
		if err := enc.Encode(struct {
			Customer uint64 `json:"customer"`
		}{uint64(id)}); err != nil {
			return err
		}
	}
	t0 := now()
	resp, err := http.Post(x.base+"/v1/stability:batch", "application/x-ndjson", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	x.hist.observe(now().Sub(t0))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/stability:batch: status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for _, id := range ids {
		var row struct {
			Customer  uint64  `json:"customer"`
			Stability float64 `json:"stability"`
			Window    int     `json:"window"`
			Error     string  `json:"error"`
		}
		if err := dec.Decode(&row); err != nil {
			return fmt.Errorf("batch row for customer %d: %w", id, err)
		}
		wantV, wantK, wantOK := x.ref.mon.Stability(id)
		if row.Error != "" {
			if wantOK {
				return fmt.Errorf("customer %d: daemon says unscored, shadow replay says %v@%d", id, wantV, wantK)
			}
			continue
		}
		if !wantOK {
			return fmt.Errorf("customer %d: daemon says %v@%d, shadow replay says unscored", id, row.Stability, row.Window)
		}
		if row.Customer != uint64(id) || row.Stability != wantV || row.Window != wantK {
			return fmt.Errorf("customer %d: daemon says customer=%d %v@%d, shadow replay says %v@%d",
				id, row.Customer, row.Stability, row.Window, wantV, wantK)
		}
		x.scores++
	}
	x.batches++
	return nil
}

// followReplay plays the external snapshot writer of a follow-mode
// deployment: it appends the feed to path as one STB1 segment per -batch
// receipts from a single writer. With -follow-compact it pauses once past
// the halfway point, waits for the daemon's follower to catch up, compacts
// the chain in place — shrinking (or rewriting) the file underneath the
// follower, which must resync without losing or duplicating output — and
// keeps appending. Returns how many receipts the daemon had consumed at
// the compaction point (0 when none happened).
func followReplay(base, path string, feed []receipt, o options, out io.Writer) (int, time.Duration, error) {
	appendSegment := func(chunk []receipt) error {
		b := stability.NewStoreBuilder()
		for _, rc := range chunk {
			if err := b.Add(stability.CustomerID(rc.Customer), rc.Time, rc.basket(), 0); err != nil {
				return err
			}
		}
		var buf strings.Builder
		if err := stability.WriteSnapshot(&buf, b.Build()); err != nil {
			return err
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(f, buf.String()); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	cut := 0
	start := now()
	for lo := 0; lo < len(feed); lo += o.batch {
		hi := lo + o.batch
		if hi > len(feed) {
			hi = len(feed)
		}
		if err := appendSegment(feed[lo:hi]); err != nil {
			return cut, 0, err
		}
		if o.followCompact && cut == 0 && hi >= len(feed)/2 && hi < len(feed) {
			// Let the follower consume everything written so far, so the
			// expected post-resync receipt count is exact, then compact.
			if err := awaitDrain(base, uint64(hi)); err != nil {
				return cut, 0, err
			}
			stats, err := stability.CompactSnapshotFile(path, time.Time{})
			if err != nil {
				return cut, 0, err
			}
			cut = hi
			fmt.Fprintf(out, "compaction mid-tail: %d segments -> 1, %d -> %d bytes under a live follower\n",
				stats.SegmentsBefore, stats.BytesBefore, stats.BytesAfter)
		}
	}
	return cut, now().Sub(start), nil
}

// 429 handling: a rejecting daemon (-policy reject) answers queue-full with
// Retry-After, and loadgen is exactly the kind of client that must honour
// it. The backoff is deterministic — the server's hint, doubled per
// consecutive rejection of the same batch, capped — so a load test is
// reproducible run to run.
const (
	// maxRetryWait caps one backoff sleep no matter what the server hints.
	maxRetryWait = 2 * time.Second
	// max429Retries bounds consecutive rejections of one batch before the
	// load test gives up; with the cap above that is at most ~100s stalled.
	max429Retries = 50
)

// backoffWait is the deterministic backoff for the attempt-th consecutive
// 429 (0-based): the server's hint left-shifted per attempt, capped.
func backoffWait(hint time.Duration, attempt int) time.Duration {
	if hint <= 0 {
		hint = 50 * time.Millisecond
	}
	for i := 0; i < attempt && hint < maxRetryWait; i++ {
		hint *= 2
	}
	if hint > maxRetryWait {
		hint = maxRetryWait
	}
	return hint
}

func postBatch(base string, batch []receipt, h *hist, retries *atomic.Uint64) error {
	body, err := json.Marshal(struct {
		Receipts []receipt `json:"receipts"`
	}{batch})
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		t0 := now()
		resp, err := http.Post(base+"/v1/receipts", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return err
		}
		h.observe(now().Sub(t0))
		if resp.StatusCode == http.StatusTooManyRequests {
			hint := retryAfterHint(resp)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if attempt >= max429Retries {
				return fmt.Errorf("POST /v1/receipts: still 429 after %d retries", attempt)
			}
			retries.Add(1)
			time.Sleep(backoffWait(hint, attempt))
			continue
		}
		var ir struct {
			Accepted int `json:"accepted"`
			Shed     int `json:"shed"`
			Stale    int `json:"stale"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ir)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("POST /v1/receipts: decode status-%d body: %w", resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /v1/receipts: status %d", resp.StatusCode)
		}
		if ir.Accepted != len(batch) {
			return fmt.Errorf("POST /v1/receipts: accepted %d of %d (shed %d, stale %d)",
				ir.Accepted, len(batch), ir.Shed, ir.Stale)
		}
		return nil
	}
}

// retryAfterHint reads the server's Retry-After header (whole seconds,
// the form attritiond sends); 0 means no usable hint.
func retryAfterHint(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		var secs int
		if _, err := fmt.Sscanf(s, "%d", &secs); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// metricsSnapshot is the subset of GET /metrics loadgen reads.
type metricsSnapshot struct {
	ReceiptsIngested  uint64 `json:"receipts_ingested"`
	ReceiptsShed      uint64 `json:"receipts_shed"`
	ReceiptsRejected  uint64 `json:"receipts_rejected"`
	ReceiptsStale     uint64 `json:"receipts_stale"`
	Watermark         int    `json:"watermark"`
	CustomersEvicted  uint64 `json:"customers_evicted"`
	CustomersRetained int    `json:"customers_retained"`
	FollowPolls       uint64 `json:"follow_polls"`
	FollowResyncs     uint64 `json:"follow_resyncs"`
}

func getJSON(base, path string, out any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// awaitDrain polls /metrics until every accepted receipt has been drained
// into the monitor (POSTs return at enqueue time, not drain time).
func awaitDrain(base string, want uint64) error {
	for tries := 0; tries < 6000; tries++ {
		var m metricsSnapshot
		if err := getJSON(base, "/metrics", &m); err != nil {
			return err
		}
		if m.ReceiptsIngested >= want {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("daemon never drained %d receipts", want)
}

// queryStabilities issues o.queries GET /v1/customers/{id}/stability calls
// round-robin over the customer ids, concurrently, measuring latency.
// 404s count as answers (customers can be unscored), other statuses fail.
func queryStabilities(base string, ids []stability.CustomerID, o options) (*hist, error) {
	if o.queries <= 0 || len(ids) == 0 {
		return &hist{}, nil
	}
	results, err := population.Map(o.conns, population.Options{Workers: o.conns}, func(w int) (*hist, error) {
		h := &hist{}
		for q := w; q < o.queries; q += o.conns {
			id := ids[q%len(ids)]
			t0 := now()
			resp, err := http.Get(fmt.Sprintf("%s/v1/customers/%d/stability", base, id))
			if err != nil {
				return nil, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			h.observe(now().Sub(t0))
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
				return nil, fmt.Errorf("GET stability %d: status %d", id, resp.StatusCode)
			}
		}
		return h, nil
	})
	if err != nil {
		return nil, err
	}
	agg := &hist{}
	for _, h := range results {
		agg.merge(h)
	}
	return agg, nil
}

// wireAlert is the subset of an alert loadgen verifies.
type wireAlert struct {
	Seq       uint64  `json:"seq"`
	Customer  uint64  `json:"customer"`
	Window    int     `json:"window"`
	Stability float64 `json:"stability"`
}

// verify replays the feed through a shadow replay under the daemon's
// watermark rule and cross-checks the daemon's counters, health, alert
// stream, and every customer's stability answer. The replay is
// deterministic, so every comparison is exact.
func verify(base string, feed []receipt, grid stability.Grid, ids []stability.CustomerID, o options, wantIngested uint64, out io.Writer) error {
	ref, err := newShadow(grid, o)
	if err != nil {
		return err
	}
	if err := ref.feed(feed); err != nil {
		return err
	}
	mon := ref.mon

	var m metricsSnapshot
	if err := getJSON(base, "/metrics", &m); err != nil {
		return err
	}
	if m.ReceiptsIngested != wantIngested || m.ReceiptsShed != 0 || m.ReceiptsRejected != 0 || m.ReceiptsStale != 0 {
		return fmt.Errorf("metrics: ingested=%d shed=%d rejected=%d stale=%d, want %d/0/0/0",
			m.ReceiptsIngested, m.ReceiptsShed, m.ReceiptsRejected, m.ReceiptsStale, wantIngested)
	}
	if m.Watermark != ref.lastClosedK+1 {
		return fmt.Errorf("watermark %d, want %d", m.Watermark, ref.lastClosedK+1)
	}
	// With a retention horizon the daemon evicts idle customers at close
	// barriers, deterministically — the sequential replay must agree on
	// both counts exactly.
	if m.CustomersEvicted != mon.Evicted() || m.CustomersRetained != mon.Customers() {
		return fmt.Errorf("eviction: daemon evicted=%d retained=%d, replay %d/%d",
			m.CustomersEvicted, m.CustomersRetained, mon.Evicted(), mon.Customers())
	}
	if o.retention > 0 {
		fmt.Fprintf(out, "eviction: %d customers evicted, %d retained, exact match\n",
			m.CustomersEvicted, m.CustomersRetained)
	}
	var h struct {
		Status    string `json:"status"`
		Customers int    `json:"customers"`
	}
	if err := getJSON(base, "/healthz", &h); err != nil {
		return err
	}
	if h.Status != "ok" || h.Customers != mon.Customers() {
		return fmt.Errorf("healthz: status=%q customers=%d, want ok/%d", h.Status, h.Customers, mon.Customers())
	}

	got, err := fetchAlerts(base)
	if err != nil {
		return err
	}
	want := ref.alerts
	if len(got) != len(want) {
		return fmt.Errorf("daemon delivered %d alerts, sequential replay raised %d", len(got), len(want))
	}
	for i, a := range got {
		w := want[i]
		if a.Seq != uint64(i)+1 || a.Customer != uint64(w.Customer) || a.Window != w.GridIndex || a.Stability != w.Stability {
			return fmt.Errorf("alert %d: got seq=%d customer=%d window=%d stability=%v, want customer=%d window=%d stability=%v",
				i, a.Seq, a.Customer, a.Window, a.Stability, w.Customer, w.GridIndex, w.Stability)
		}
	}
	fmt.Fprintf(out, "alert stream: %d alerts, exact match\n", len(got))

	checked := 0
	for _, id := range ids {
		wantV, wantK, wantOK := mon.Stability(id)
		var sr struct {
			Stability float64 `json:"stability"`
			Window    int     `json:"window"`
		}
		resp, err := http.Get(fmt.Sprintf("%s/v1/customers/%d/stability", base, id))
		if err != nil {
			return err
		}
		switch {
		case resp.StatusCode == http.StatusOK && wantOK:
			err := json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if sr.Stability != wantV || sr.Window != wantK {
				return fmt.Errorf("customer %d: daemon says %v@%d, replay says %v@%d",
					id, sr.Stability, sr.Window, wantV, wantK)
			}
			checked++
		case resp.StatusCode == http.StatusNotFound && !wantOK:
			resp.Body.Close()
		default:
			resp.Body.Close()
			return fmt.Errorf("customer %d: status %d, replay scored=%v", id, resp.StatusCode, wantOK)
		}
	}
	fmt.Fprintf(out, "stabilities: %d scored customers, exact match\n", checked)
	return nil
}

// fetchAlerts pages through GET /v1/alerts.
func fetchAlerts(base string) ([]wireAlert, error) {
	var out []wireAlert
	after := uint64(0)
	for {
		var page struct {
			Alerts []wireAlert `json:"alerts"`
			Next   uint64      `json:"next"`
		}
		if err := getJSON(base, fmt.Sprintf("/v1/alerts?after=%d&max=500", after), &page); err != nil {
			return nil, err
		}
		out = append(out, page.Alerts...)
		if len(page.Alerts) == 0 {
			return out, nil
		}
		after = page.Next
	}
}
