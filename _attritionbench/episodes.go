package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/gautrais/stability"
)

// collector gathers one run's samples; timings are raw, not bucketed.
type collector struct {
	setup, shutdown, heap, rate []float64 // s, s, MiB, receipts/s
	post, query, late           []float64 // ms, every sample of the run
	lag                         summary
	attempted, failed           int
	// Traced episodes only: sampled input-queue depth, the span it was
	// sampled over, and the batches that arrived meanwhile.
	depth    []float64
	depthFor time.Duration
	arrivals int
}

// bench is one run: a workload, its prepared inputs and reference, and
// the samples collected so far.
type bench struct {
	w   workload
	in  *inputs
	ref *reference
	dir string
	log io.Writer
	// tr is non-nil during traced episodes and layer passes.
	tr *tracer

	mu  sync.Mutex
	col collector
	// keepJournal, when set, receives the journal of the next episode
	// (the store pass of a traced run polls it).
	keepJournal string
}

// fail counts one failed operation.
func (b *bench) fail(err error) {
	b.mu.Lock()
	b.col.failed++
	b.mu.Unlock()
	fmt.Fprintln(b.log, "FAIL:", err)
}

// samples is one load generator's share of an episode.
type samples struct {
	lat, late []float64
	ops       int
}

// summary is a latency summarised per episode: the p50 and p99 of each
// episode's raw samples, of which a run reports the median over its
// episodes; n counts the samples in all. Alert lag is summarised so: its
// samples are barriers, 4 to 7 an episode, too few for a p99 pooled over
// the run (that would be the run's single slowest barrier). POST and query
// latencies are pooled over the run instead, which holds at least ten
// samples beyond the POST p99.
type summary struct {
	p50, p99 []float64
	n        int
}

func (s *summary) add(xs []float64) {
	if len(xs) == 0 {
		return
	}
	s.p50 = append(s.p50, quantile(xs, 0.5))
	s.p99 = append(s.p99, quantile(xs, 0.99))
	s.n += len(xs)
}

// record closes the episode's POST and query latencies.
func (b *bench) record(post, query *samples) {
	c := &b.col
	c.late = append(append(c.late, post.late...), query.late...)
	c.attempted += post.ops + query.ops
	c.post = append(c.post, post.lat...)
	c.query = append(c.query, query.lat...)
}

func (b *bench) wrap() func(http.Handler) http.Handler {
	if b.tr == nil {
		return nil
	}
	return b.tr.wrap
}

// episode runs one boot-drive-shutdown cycle of the workload.
func (b *bench) episode(ctx context.Context, first bool) error {
	dir, err := os.MkdirTemp(b.dir, "episode-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if b.w.follow {
		return b.restartEpisode(ctx, dir)
	}
	return b.ingestEpisode(ctx, dir, first)
}

// setupProbe is a cold boot with nothing to do: boot, ready, stop.
func (b *bench) setupProbe(ctx context.Context) error {
	dir, err := os.MkdirTemp(b.dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := b.w.serverConfig(b.in, dir)
	if b.w.follow {
		// The restart state over an empty chain: the boot restores SMN1
		// and has nothing to catch up on, so no catch-up overlaps the
		// readiness round trip.
		if err := b.in.copyState(cfg.StatePath); err != nil {
			return err
		}
		cfg.FollowPath = filepath.Join(dir, "empty.stb")
		if err := os.WriteFile(cfg.FollowPath, nil, 0o644); err != nil {
			return err
		}
	}
	d, conns, _, _, err := b.boot(ctx, cfg, 1)
	if err != nil {
		return err
	}
	defer closeConns(conns)
	b.col.setup = append(b.col.setup, d.setup.Seconds())
	_, err = d.stop()
	return err
}

// boot starts a daemon and waits until it answers ready, timing setup_s
// into d.setup; the heap baseline is read just before NewServer.
func (b *bench) boot(ctx context.Context, cfg stability.ServerConfig, conns int) (*daemon, []*conn, float64, time.Time, error) {
	before := heapMB()
	d, start, err := startDaemon(cfg, b.wrap())
	if err != nil {
		return nil, nil, 0, time.Time{}, err
	}
	cs := make([]*conn, conns)
	for i := range cs {
		cs[i] = newConn(d.base, b.tr)
	}
	ready, err := cs[0].ready(ctx)
	if err != nil {
		d.stop()
		closeConns(cs)
		return nil, nil, 0, time.Time{}, err
	}
	d.setup = ready.Sub(start)
	return d, cs, before, ready, nil
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

// ingestResponse is the POST /v1/receipts answer.
type ingestResponse struct {
	Accepted int `json:"accepted"`
	Shed     int `json:"shed"`
	Stale    int `json:"stale"`
}

// post sends one receipts body and checks every receipt was accepted.
// due is when the send was due: the previous completion on the writer's
// closed loop. It returns the send and completion times.
func (b *bench) post(ctx context.Context, c *conn, ref bodyRef, due time.Time, s *samples) (time.Time, time.Time, error) {
	body, err := c.load(b.in.bodies, ref)
	if err != nil {
		return time.Time{}, time.Time{}, err
	}
	s.ops++
	status, start, end, err := c.do(ctx, "client.post", http.MethodPost, "/v1/receipts", "application/json", body)
	if err != nil {
		if ctx.Err() != nil {
			return start, end, ctx.Err()
		}
		b.fail(fmt.Errorf("POST /v1/receipts: %w", err))
		return start, end, nil
	}
	s.lat = append(s.lat, ms(end.Sub(due)))
	s.late = append(s.late, ms(start.Sub(due)))
	if err := checkPost(status, c.resp.Bytes(), ref); err != nil {
		b.fail(err)
	}
	return start, end, nil
}

// checkPost judges one POST /v1/receipts answer: a 200 that accepted
// every receipt of the body.
func checkPost(status int, body []byte, ref bodyRef) error {
	if status != http.StatusOK {
		return fmt.Errorf("POST /v1/receipts: status %d: %s", status, bytes.TrimSpace(body))
	}
	var ir ingestResponse
	if err := json.Unmarshal(body, &ir); err != nil || ir.Accepted != ref.receipts {
		return checkf("POST /v1/receipts: accepted %d of %d (shed %d, stale %d, %v)", ir.Accepted, ref.receipts, ir.Shed, ir.Stale, err)
	}
	return nil
}

// batchRow is what the checks read from one NDJSON line of a POST
// /v1/stability:batch answer.
type batchRow struct {
	customer  uint64
	stability float64
	window    int
	unscored  bool
}

var (
	keyCustomer  = []byte(`"customer":`)
	keyStability = []byte(`"stability":`)
	keyWindow    = []byte(`"window":`)
	keyError     = []byte(`"error":`)
)

// parseRow reads one answer line. It parses this fixed shape by hand: the
// load generator shares the daemon's heap, and encoding/json's garbage
// would add GC work the daemon does not cause.
func parseRow(line []byte) (batchRow, error) {
	var row batchRow
	if bytes.Contains(line, keyError) {
		row.unscored = true
		return row, nil
	}
	c, err1 := strconv.ParseUint(string(field(line, keyCustomer)), 10, 64)
	v, err2 := strconv.ParseFloat(string(field(line, keyStability)), 64)
	k, err3 := strconv.Atoi(string(field(line, keyWindow)))
	if err := errors.Join(err1, err2, err3); err != nil {
		return row, fmt.Errorf("answer line %q: %w", line, err)
	}
	row.customer, row.stability, row.window = c, v, k
	return row, nil
}

// field returns the raw value after key in a flat JSON object line.
func field(line, key []byte) []byte {
	i := bytes.Index(line, key)
	if i < 0 {
		return nil
	}
	v := line[i+len(key):]
	if j := bytes.IndexAny(v, ",}"); j >= 0 {
		v = v[:j]
	}
	return v
}

// rowCheck judges one answer row for ids[i].
type rowCheck func(i int, id stability.CustomerID, row batchRow) error

// query sends one batch query for the ids of ref and checks every row.
func (b *bench) query(ctx context.Context, c *conn, ref bodyRef, due time.Time, s *samples, check rowCheck) error {
	body, err := c.load(b.in.bodies, ref)
	if err != nil {
		return err
	}
	s.ops++
	status, start, end, err := c.do(ctx, "client.query", http.MethodPost, "/v1/stability:batch", "application/x-ndjson", body)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		b.fail(fmt.Errorf("POST /v1/stability:batch: %w", err))
		return nil
	}
	s.lat = append(s.lat, ms(end.Sub(due)))
	s.late = append(s.late, ms(start.Sub(due)))
	if err := b.checkAnswer(status, c.resp.Bytes(), ref, check); err != nil {
		b.fail(err)
	}
	return nil
}

// checkAnswer judges one POST /v1/stability:batch answer for the ids of
// ref: a 200 with one row per id, each passing check.
func (b *bench) checkAnswer(status int, rest []byte, ref bodyRef, check rowCheck) error {
	if status != http.StatusOK {
		return fmt.Errorf("POST /v1/stability:batch: status %d", status)
	}
	ids := b.in.ids[ref.first : ref.first+ref.receipts]
	for i, id := range ids {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return checkf("answer has %d rows for %d customers", i, len(ids))
		}
		row, err := parseRow(rest[:nl])
		rest = rest[nl+1:]
		if err != nil {
			return checkf("batch row %d (customer %d): %v", i, id, err)
		}
		if err := check(i, id, row); err != nil {
			return err
		}
	}
	return nil
}

// exactRow checks a row against the reference's final stabilities: valid
// once the daemon has drained the whole feed.
func (b *bench) exactRow(ref bodyRef) rowCheck {
	return func(i int, id stability.CustomerID, row batchRow) error {
		want := b.ref.final[ref.first+i]
		if row.unscored {
			if want.OK {
				return checkf("customer %d: daemon says unscored, replay says %v@%d", id, want.Value, want.GridIndex)
			}
			return nil
		}
		if !want.OK || row.customer != uint64(id) || math.Float64bits(row.stability) != math.Float64bits(want.Value) || row.window != want.GridIndex {
			return checkf("customer %d: daemon says customer=%d %v@%d, replay says %v@%d (ok=%v)",
				id, row.customer, row.stability, row.window, want.Value, want.GridIndex, want.OK)
		}
		return nil
	}
}

// sweep is the closed-loop query sweep over the drained daemon: fixed-size
// batches cycling over every customer, each answer checked exactly.
func (b *bench) sweep(ctx context.Context, c *conn) (*samples, error) {
	s := &samples{}
	due := now()
	for q := 0; q < b.w.sweepQueries; q++ {
		ref := b.in.queries[q%len(b.in.queries)]
		if err := b.query(ctx, c, ref, due, s, b.exactRow(ref)); err != nil {
			return nil, err
		}
		due = c.last
	}
	return s, nil
}

// ingestEpisode: a fresh daemon, 2 closed-loop writers replaying the feed
// month by month (customer-partitioned; every writer finishes month m
// before any posts month m+1, as cmd/loadgen does), drain, a query sweep,
// graceful stop.
func (b *bench) ingestEpisode(ctx context.Context, dir string, first bool) error {
	d, conns, before, _, err := b.boot(ctx, b.w.serverConfig(b.in, dir), b.w.writers)
	if err != nil {
		return err
	}
	defer d.stop()
	defer closeConns(conns)
	obs := observe(d.ingestor())
	defer obs.close()
	smp := b.sampleQueue(d.ingestor(), func(m stability.IngestorMetrics) float64 { return float64(m.QueueDepth) })
	defer smp.close()

	ectx, cancel := context.WithCancel(ctx)
	defer cancel()
	phaseStart := make([]time.Time, len(b.in.phases))
	start := now()
	posts := make([]samples, b.w.writers)
	for m, phase := range b.in.phases {
		phaseStart[m] = now()
		g := &group{stop: cancel}
		for w, refs := range phase {
			c, s := conns[w], &posts[w]
			due := phaseStart[m]
			g.goRun(func() error {
				for _, ref := range refs {
					if _, _, err := b.post(ectx, c, ref, due, s); err != nil {
						return err
					}
					due = c.last
				}
				return nil
			})
		}
		if err := g.wait(); err != nil {
			return err
		}
	}
	drained, err := waitIngested(ctx, d.ingestor(), b.in.fed)
	if err != nil {
		return err
	}
	smp.close()
	b.col.rate = append(b.col.rate, float64(b.in.fed)/drained.Sub(start).Seconds())
	for _, p := range posts[1:] {
		posts[0].lat = append(posts[0].lat, p.lat...)
		posts[0].late = append(posts[0].late, p.late...)
		posts[0].ops += p.ops
	}
	b.arrivals(smp, posts[0].ops)
	queries, err := b.sweep(ctx, conns[0])
	if err != nil {
		return err
	}
	b.col.heap = append(b.col.heap, heapMB()-before)
	b.record(&posts[0], queries)
	obs.close()
	if err := b.lags(obs, func(closer int) (time.Time, bool) { return phaseStart[b.in.monthOf[closer]], true }); err != nil {
		return err
	}
	return b.finish(ctx, d, conns[0], dir, first, b.ref.alerts, b.in.fed)
}

// lags records the episode's alert lags. Alerts are published a barrier at
// a time, so one sample is one window-close barrier: from sent(closer),
// when the request carrying the receipt that closes the window was sent
// (feed index closer), to the last of the window's alerts appearing in
// AlertsSince. Windows sent reports false for are not timed.
func (b *bench) lags(obs *observer, sent func(closer int) (time.Time, bool)) error {
	seen := make(map[int]time.Time)
	for _, a := range obs.seen {
		if at, ok := seen[a.k]; !ok || a.at.After(at) {
			seen[a.k] = a.at
		}
	}
	lags := make([]float64, 0, len(seen))
	for k, last := range seen {
		closer, ok := b.ref.closer[k]
		if !ok {
			return checkf("alert for window %d, which the feed never closes", k)
		}
		if at, ok := sent(closer); ok {
			lags = append(lags, ms(last.Sub(at)))
		}
	}
	b.col.lag.add(lags)
	return nil
}

// restartEpisode: a follow-mode daemon restarts with the earlier run's
// state over the chain, replays it (the whole chain: a follow restart
// suppresses the windows its state already delivered), then tails live
// segment appends, answers a query sweep and stops gracefully. Alert lag
// is timed on the tail's barriers only: the catch-up's alerts wait on
// catch-up progress, which receipts_per_s already measures.
func (b *bench) restartEpisode(ctx context.Context, dir string) error {
	cfg := b.w.serverConfig(b.in, dir)
	if err := b.in.resetRestart(cfg.StatePath); err != nil {
		return err
	}
	d, conns, before, ready, err := b.boot(ctx, cfg, 1)
	if err != nil {
		return err
	}
	defer d.stop()
	defer closeConns(conns)
	ing := d.ingestor()
	obs := observe(ing)
	defer obs.close()
	var appended sync.Mutex
	segs := b.in.chainSegs
	smp := b.sampleQueue(ing, func(m stability.IngestorMetrics) float64 {
		appended.Lock()
		n := segs
		appended.Unlock()
		done := 0
		for done < n && b.in.segEnds[done] <= int(m.ReceiptsIngested) {
			done++
		}
		return float64(n - done)
	})
	defer smp.close()

	for ing.Watermark() < b.in.catchUpWM {
		if err := sleepUntil(ctx, now().Add(200*time.Microsecond)); err != nil {
			return err
		}
	}
	caughtUp, err := waitIngested(ctx, ing, b.in.backlog)
	if err != nil {
		return err
	}
	b.col.rate = append(b.col.rate, float64(b.in.backlog)/caughtUp.Sub(ready).Seconds())

	chain, err := os.OpenFile(b.in.chain, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer chain.Close()
	tail := &samples{}
	tailStart := make([]time.Time, len(b.in.tail))
	c := conns[0]
	due := now()
	want := b.in.backlog
	for i, ref := range b.in.tail {
		seg, err := c.load(b.in.tailFile, ref)
		if err != nil {
			return err
		}
		tail.ops++
		start := now()
		tailStart[i] = start
		if _, err := chain.Write(seg); err != nil {
			return err
		}
		appended.Lock()
		segs++
		appended.Unlock()
		want += ref.receipts
		end, err := waitIngested(ctx, ing, want)
		if err != nil {
			return err
		}
		tail.lat = append(tail.lat, ms(end.Sub(start)))
		tail.late = append(tail.late, ms(start.Sub(due)))
		due = end
		if b.tr != nil {
			b.tr.add(span{Name: "client.append", Start: b.tr.at(start), End: b.tr.at(end)})
		}
	}
	smp.close()
	b.arrivals(smp, len(b.in.segEnds))
	queries, err := b.sweep(ctx, c)
	if err != nil {
		return err
	}
	b.col.heap = append(b.col.heap, heapMB()-before)
	b.record(tail, queries)
	obs.close()
	err = b.lags(obs, func(closer int) (time.Time, bool) {
		if closer < b.in.backlog {
			return time.Time{}, false
		}
		return tailStart[(closer-b.in.backlog)/b.w.tailBatch], true
	})
	if err != nil {
		return err
	}
	return b.finish(ctx, d, c, dir, false, b.ref.alertsAfter(b.in.suppressK), len(b.in.monthOf))
}

// metricsBody is the subset of GET /metrics the checks read.
type metricsBody struct {
	ReceiptsIngested uint64 `json:"receipts_ingested"`
	ReceiptsShed     uint64 `json:"receipts_shed"`
	ReceiptsRejected uint64 `json:"receipts_rejected"`
	ReceiptsStale    uint64 `json:"receipts_stale"`
	IngestErrors     uint64 `json:"ingest_errors"`
	FollowErrors     uint64 `json:"follow_errors"`
	JournalErrors    uint64 `json:"journal_errors"`
}

// finish checks counters and every customer's stability on the live
// daemon, stops it (timing the shutdown), then checks the delivered alert
// log and the SMN1 state it saved against the reference.
func (b *bench) finish(ctx context.Context, d *daemon, c *conn, dir string, first bool, wantAlerts []stability.SeqAlert, ingested int) error {
	status, _, _, err := c.do(ctx, "client.metrics", http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return err
	}
	var m metricsBody
	if err := json.Unmarshal(c.resp.Bytes(), &m); status != http.StatusOK || err != nil {
		return fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	if m.ReceiptsIngested != uint64(ingested) || m.ReceiptsShed != 0 || m.ReceiptsRejected != 0 || m.ReceiptsStale != 0 ||
		m.IngestErrors != 0 || m.FollowErrors != 0 || m.JournalErrors != 0 {
		return checkf("metrics: %+v, want %d ingested and no shed, rejected, stale or errors", m, ingested)
	}
	got := d.ingestor().Stabilities(b.in.ids, nil)
	for i, g := range got {
		w := b.ref.final[i]
		if g.Customer != w.Customer || g.OK != w.OK || g.GridIndex != w.GridIndex || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			return checkf("customer %d: daemon %+v, replay %+v", b.in.ids[i], g, w)
		}
	}

	took, err := d.stop()
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	b.col.shutdown = append(b.col.shutdown, took.Seconds())

	alerts, _, _ := d.ingestor().AlertsSince(0, 0)
	if err := sameAlerts(alerts, wantAlerts); err != nil {
		return err
	}
	state, err := os.ReadFile(filepath.Join(dir, "state.smn"))
	if err != nil {
		return err
	}
	if !bytes.Equal(state, b.ref.snapshot) {
		return checkf("final SMN1 state: %d bytes differ from the replay's %d", len(state), len(b.ref.snapshot))
	}
	journal := filepath.Join(dir, "journal.stb")
	if first && !b.w.follow {
		f, err := os.Open(journal)
		if err != nil {
			return err
		}
		st, err := stability.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		if st.NumReceipts() != ingested {
			return checkf("journal holds %d receipts, daemon ingested %d", st.NumReceipts(), ingested)
		}
	}
	if b.keepJournal != "" {
		if err := os.Rename(journal, b.keepJournal); err != nil {
			return err
		}
	}
	return nil
}

// sameAlerts compares two delivery logs byte for byte in the wire form
// GET /v1/alerts delivers: seq, customer, window, stability bits, drop
// and blame.
func sameAlerts(got, want []stability.SeqAlert) error {
	if len(got) != len(want) {
		return checkf("daemon delivered %d alerts, replay raised %d", len(got), len(want))
	}
	var gb, wb bytes.Buffer
	for i := range got {
		gb.Reset()
		wb.Reset()
		if err := stability.EncodeAlerts(&gb, got[i:i+1]); err != nil {
			return err
		}
		if err := stability.EncodeAlerts(&wb, want[i:i+1]); err != nil {
			return err
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			return checkf("alert %d: daemon %s, replay %s", i, bytes.TrimSpace(gb.Bytes()), bytes.TrimSpace(wb.Bytes()))
		}
	}
	return nil
}

// queueSampler samples the input-queue depth every millisecond during a
// traced episode (Metrics round-trips through every shard, so untraced
// episodes never sample).
type queueSampler struct {
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	start time.Time
	took  time.Duration
	depth []float64
}

func (b *bench) sampleQueue(ing *stability.Ingestor, depth func(stability.IngestorMetrics) float64) *queueSampler {
	s := &queueSampler{stop: make(chan struct{}), done: make(chan struct{}), start: now()}
	if b.tr == nil {
		close(s.done)
		return s
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			s.depth = append(s.depth, depth(ing.Metrics()))
			select {
			case <-tick.C:
			case <-s.stop:
				s.took = now().Sub(s.start)
				return
			}
		}
	}()
	return s
}

// close stops the sampler and waits for it; safe to call twice.
func (s *queueSampler) close() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// arrivals records a traced episode's queue samples and how many batches
// arrived while they were taken (Little's law turns the two into a wait).
func (b *bench) arrivals(s *queueSampler, n int) {
	if b.tr == nil {
		return
	}
	b.col.depth = append(b.col.depth, s.depth...)
	b.col.depthFor += s.took
	b.col.arrivals += n
}

// isCheck reports whether err is an output mismatch (counted as a failed
// operation) rather than an error that stops the run.
func isCheck(err error) bool { return errors.Is(err, errCheck) }
