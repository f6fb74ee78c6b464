package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/gautrais/stability"
)

// ledger is one round of per-layer metrics.
type ledger map[string]float64

// passQueries is the number of batch queries the serve and Stabilities
// passes send, cycling over every customer.
const passQueries = 400

// sink is a ResponseWriter that keeps what the handler writes in a reused
// buffer, for the checks.
type sink struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (s *sink) Header() http.Header { return s.h }

func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}

func (s *sink) Write(p []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	return s.body.Write(p)
}

func (s *sink) reset() {
	clear(s.h)
	s.status = 0
	s.body.Reset()
}

// passInputs are the in-memory forms the passes below the HTTP layer
// take: event batches (the POST bodies' batches) and, per customer, the
// basket of every window the monitor scored.
type passInputs struct {
	feed []receipt
	// windows[c] are customer c's scored windows in order, with their
	// baskets and the replay's stabilities.
	windows [][]scoredBasket
}

type scoredBasket struct {
	items stability.Basket
	want  float64
}

func newPassInputs(in *inputs, ref *reference, feed []receipt) *passInputs {
	p := &passInputs{feed: feed}
	baskets := make(map[scoreKey][]stability.ItemID)
	for _, r := range feed {
		k := scoreKey{r.customer, in.grid.Index(r.time)}
		baskets[k] = append(baskets[k], r.items...)
	}
	pos := make(map[stability.CustomerID]int)
	for _, k := range ref.order {
		i, ok := pos[k.customer]
		if !ok {
			i = len(p.windows)
			pos[k.customer] = i
			p.windows = append(p.windows, nil)
		}
		p.windows[i] = append(p.windows[i], scoredBasket{items: stability.NewBasket(baskets[k]), want: ref.scores[k]})
	}
	return p
}

// events builds fresh event batches for one Enqueue pass (an accepted
// batch belongs to the ingestor).
func (p *passInputs) events(batch int) [][]stability.ReceiptEvent {
	var out [][]stability.ReceiptEvent
	for lo := 0; lo < len(p.feed); lo += batch {
		hi := min(lo+batch, len(p.feed))
		evs := make([]stability.ReceiptEvent, hi-lo)
		for i, r := range p.feed[lo:hi] {
			evs[i] = stability.ReceiptEvent{Customer: r.customer, Time: r.time, Items: r.items}
		}
		out = append(out, evs)
	}
	return out
}

// layerPasses drives the workload's feed from a single producer through
// one public entry point at a time, top to bottom, and fills lg. A
// layer's self time is its pass minus the pass one layer down. It returns
// the requests the serve pass sent and how many of them failed.
func (b *bench) layerPasses(ctx context.Context, p *passInputs, chainPath string, lg ledger) (int, int, error) {
	dir, err := os.MkdirTemp(b.dir, "passes-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	root := b.tr.newID()
	rootStart := now()
	defer func() { b.tr.add(span{ID: root, Name: "layer passes", Start: b.tr.at(rootStart), End: b.tr.at(now())}) }()

	serve, ops, bad, err := b.servePass(ctx, dir, root, lg)
	if err != nil {
		return 0, 0, err
	}
	ing, err := b.ingestorPass(ctx, dir, root, p, lg)
	if err != nil {
		return 0, 0, err
	}
	sharded, err := b.shardedPass(dir, root, p, lg)
	if err != nil {
		return 0, 0, err
	}
	mon, err := b.monitorPass(root, p, lg)
	if err != nil {
		return 0, 0, err
	}
	core, err := b.corePass(root, p, lg)
	if err != nil {
		return 0, 0, err
	}
	if err := b.storePass(dir, root, chainPath, lg); err != nil {
		return 0, 0, err
	}
	lg["serve.ingest_self_ms"] = ms(serve - ing)
	lg["serve.query_self_ms"] = lg["serve.query_busy_ms"] - lg["stream.ingestor.stabilities_ms"]
	lg["stream.ingestor.self_ms"] = ms(ing - sharded)
	lg["stream.sharded.self_ms"] = ms(sharded - mon)
	lg["stream.monitor.self_ms"] = ms(mon - core)
	return ops, bad, nil
}

// passConfig is the daemon configuration of the serve and ingestor
// passes: the HTTP-ingest form (state file and journal) on every workload.
func (b *bench) passConfig(dir string) stability.ServerConfig {
	w := b.w
	w.follow = false
	return w.serverConfig(b.in, dir)
}

// servePass times Server.Handler().ServeHTTP on the POST bodies until the
// daemon has drained them, then on batch queries over the drained state,
// and Ingestor.Stabilities on the same id batches. Every answer is checked
// as in an episode; it returns the requests sent and how many failed.
func (b *bench) servePass(ctx context.Context, dir string, root int64, lg ledger) (time.Duration, int, int, error) {
	sub := filepath.Join(dir, "serve")
	if err := os.Mkdir(sub, 0o755); err != nil {
		return 0, 0, 0, err
	}
	srv, err := stability.NewServer(b.passConfig(sub))
	if err != nil {
		return 0, 0, 0, err
	}
	defer srv.Close()
	h := srv.Handler()
	w := &sink{h: http.Header{}}
	c := &conn{}
	ops, bad := 0, 0
	judge := func(err error) {
		ops++
		if w.status/100 != 2 {
			lg["serve.failed"]++
		}
		if err != nil {
			bad++
			fmt.Fprintln(b.log, "FAIL:", err)
		}
	}
	var busy time.Duration
	var bytesIn int64
	start := now()
	for _, ref := range b.in.stream {
		body, err := c.load(b.in.bodies, ref)
		if err != nil {
			return 0, 0, 0, err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/receipts", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w.reset()
		t := now()
		h.ServeHTTP(w, req)
		busy += now().Sub(t)
		bytesIn += int64(len(body))
		judge(checkPost(w.status, w.body.Bytes(), ref))
	}
	if _, err := waitIngested(ctx, srv.Ingestor(), b.in.fed); err != nil {
		return 0, 0, 0, err
	}
	srv.Ingestor().Customers() // every shard has scored what it was handed
	wall := b.tr.interval("pass serve ingest", root, start)
	lg["serve.ingest_busy_ms"] = ms(busy)
	lg["serve.bytes_in"] = float64(bytesIn)

	busy = 0
	var bytesOut int64
	start = now()
	for q := 0; q < passQueries; q++ {
		ref := b.in.queries[q%len(b.in.queries)]
		body, err := c.load(b.in.bodies, ref)
		if err != nil {
			return 0, 0, 0, err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/stability:batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/x-ndjson")
		w.reset()
		t := now()
		h.ServeHTTP(w, req)
		busy += now().Sub(t)
		bytesOut += int64(w.body.Len())
		judge(b.checkAnswer(w.status, w.body.Bytes(), ref, b.exactRow(ref)))
	}
	b.tr.interval("pass serve query", root, start)
	lg["serve.query_busy_ms"] = ms(busy)
	lg["serve.bytes_out"] = float64(bytesOut)

	var dst []stability.CustomerStability
	var took time.Duration
	start = now()
	for q := 0; q < passQueries; q++ {
		ref := b.in.queries[q%len(b.in.queries)]
		ids := b.in.ids[ref.first : ref.first+ref.receipts]
		t := now()
		dst = srv.Ingestor().Stabilities(ids, dst[:0])
		took += now().Sub(t)
		for i, got := range dst {
			if want := b.ref.final[ref.first+i]; got != want {
				return 0, 0, 0, checkf("Ingestor.Stabilities: customer %d %+v, replay %+v", ids[i], got, want)
			}
		}
	}
	b.tr.interval("pass ingestor stabilities", root, start)
	lg["stream.ingestor.stabilities_ms"] = ms(took)
	return wall, ops, bad, srv.Close()
}

// ingestorPass times Ingestor.Enqueue (block policy) on the same batches
// until the drainer has handed every receipt to the shards.
func (b *bench) ingestorPass(ctx context.Context, dir string, root int64, p *passInputs, lg ledger) (time.Duration, error) {
	sub := filepath.Join(dir, "ingestor")
	if err := os.Mkdir(sub, 0o755); err != nil {
		return 0, err
	}
	cfg := b.passConfig(sub)
	ing, err := stability.NewIngestor(stability.IngestorConfig{
		Monitor:       cfg.Monitor,
		Shards:        cfg.Shards,
		QueueBatches:  cfg.QueueBatches,
		Policy:        cfg.Policy,
		StatePath:     cfg.StatePath,
		SaveInterval:  cfg.SaveInterval,
		FlushInterval: cfg.FlushInterval,
		JournalPath:   cfg.JournalPath,
	})
	if err != nil {
		return 0, err
	}
	defer ing.Close()
	batches := p.events(b.w.batch)
	var blocked time.Duration
	start := now()
	for _, batch := range batches {
		t := now()
		ok, err := ing.Enqueue(batch)
		blocked += now().Sub(t)
		if err != nil || !ok {
			return 0, fmt.Errorf("Ingestor.Enqueue: accepted=%v: %v", ok, err)
		}
	}
	if _, err := waitIngested(ctx, ing, len(p.feed)); err != nil {
		return 0, err
	}
	ing.Customers()
	wall := b.tr.interval("pass ingestor", root, start)
	lg["stream.ingestor.enqueue_blocked_ms"] = ms(blocked)
	return wall, ing.Close()
}

// shardedPass feeds ShardedMonitor.Ingest with CloseThrough at the
// drainer's barrier positions, then times SMN1 write and read of the
// resulting state.
func (b *bench) shardedPass(dir string, root int64, p *passInputs, lg ledger) (time.Duration, error) {
	mon, err := stability.NewShardedMonitor(b.in.monitor, stability.MonitorOptions{Shards: shards})
	if err != nil {
		return 0, err
	}
	defer mon.Close()
	var ingest, closing, closeMax time.Duration
	alerts := 0
	start := now()
	seg := start
	maxMonth, last := math.MinInt, -1
	for i, r := range p.feed {
		if m := b.in.monthOf[i]; m > maxMonth {
			maxMonth = m
			if k := closeWindow(b.in.grid, m); k > last {
				t := now()
				ingest += t.Sub(seg)
				a, err := mon.CloseThrough(k)
				if err != nil {
					return 0, err
				}
				seg = now()
				d := seg.Sub(t)
				closing += d
				closeMax = max(closeMax, d)
				alerts += len(a)
				last = k
			}
		}
		if err := mon.Ingest(r.customer, r.time, r.items); err != nil {
			return 0, err
		}
	}
	mon.Customers() // every shard has scored what it was handed
	ingest += now().Sub(seg)
	wall := b.tr.interval("pass sharded", root, start)
	lg["stream.sharded.ingest_ms"] = ms(ingest)
	lg["stream.sharded.close_ms"] = ms(closing)
	lg["stream.sharded.close_max_ms"] = ms(closeMax)

	path := filepath.Join(dir, "state.smn")
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	start = now()
	err = mon.WriteSnapshot(f)
	lg["stream.persist.write_ms"] = ms(b.tr.interval("pass persist write", root, start))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	f, err = os.Open(path)
	if err != nil {
		return 0, err
	}
	start = now()
	restored, err := stability.ReadShardedMonitorSnapshot(f, b.in.monitor, stability.MonitorOptions{Shards: shards})
	lg["stream.persist.read_ms"] = ms(b.tr.interval("pass persist read", root, start))
	f.Close()
	if err != nil {
		return 0, err
	}
	restored.Close()
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	lg["stream.persist.state_bytes"] = float64(info.Size())
	rest, err := mon.Close()
	if err != nil {
		return 0, err
	}
	if alerts+len(rest) != len(b.ref.alerts) {
		return 0, checkf("sharded pass raised %d alerts, replay %d", alerts+len(rest), len(b.ref.alerts))
	}
	return wall, nil
}

// monitorPass is the single-threaded baseline: Monitor.Ingest and
// CloseThrough, counting the windows it scores.
func (b *bench) monitorPass(root int64, p *passInputs, lg ledger) (time.Duration, error) {
	mon, err := stability.NewMonitor(b.in.monitor)
	if err != nil {
		return 0, err
	}
	windows := 0
	mon.OnScored(func(stability.ScoredWindow) { windows++ })
	var ingest, closing time.Duration
	alerts := 0
	start := now()
	seg := start
	maxMonth, last := math.MinInt, -1
	for i, r := range p.feed {
		if m := b.in.monthOf[i]; m > maxMonth {
			maxMonth = m
			if k := closeWindow(b.in.grid, m); k > last {
				t := now()
				ingest += t.Sub(seg)
				alerts += len(mon.CloseThrough(k))
				seg = now()
				closing += seg.Sub(t)
				last = k
			}
		}
		a, err := mon.Ingest(r.customer, r.time, r.items)
		if err != nil {
			return 0, err
		}
		alerts += len(a)
	}
	ingest += now().Sub(seg)
	wall := b.tr.interval("pass monitor", root, start)
	if windows != b.ref.windows || alerts != len(b.ref.alerts) {
		return 0, checkf("monitor pass scored %d windows with %d alerts, replay %d and %d", windows, alerts, b.ref.windows, len(b.ref.alerts))
	}
	lg["stream.monitor.ingest_ms"] = ms(ingest)
	lg["stream.monitor.close_ms"] = ms(closing)
	lg["stream.monitor.windows"] = float64(windows)
	lg["stream.monitor.alerts"] = float64(alerts)
	return wall, nil
}

// corePass runs Tracker.Observe over exactly the windows the monitor
// scored, one fresh tracker per customer, and checks every result.
func (b *bench) corePass(root int64, p *passInputs, lg ledger) (time.Duration, error) {
	trackers := make([]*stability.Tracker, len(p.windows))
	got := make([][]float64, len(p.windows))
	for i := range trackers {
		t, err := stability.NewTracker(b.in.monitor.Model)
		if err != nil {
			return 0, err
		}
		trackers[i] = t
		got[i] = make([]float64, len(p.windows[i]))
	}
	calls := 0
	start := now()
	for i, ws := range p.windows {
		t := trackers[i]
		for j, w := range ws {
			got[i][j] = t.Observe(w.items).Stability
		}
		calls += len(ws)
	}
	wall := b.tr.interval("pass core", root, start)
	seen := 0
	for i, ws := range p.windows {
		for j, w := range ws {
			if math.Float64bits(got[i][j]) != math.Float64bits(w.want) {
				return 0, checkf("core pass: window %d of customer #%d scored %v, monitor %v", j, i, got[i][j], w.want)
			}
		}
		seen += trackers[i].Seen()
	}
	lg["core.observe_ms"] = ms(wall)
	lg["core.observe_calls"] = float64(calls)
	lg["core.repertoire_mean"] = float64(seen) / float64(len(trackers))
	return wall, nil
}

// storePass times Follower.Poll over the workload's STB1 chain (the
// restart chain, or the traced episode's journal) and Store.WriteBinary of
// the receipts it decoded.
func (b *bench) storePass(dir string, root int64, chainPath string, lg ledger) error {
	info, err := os.Stat(chainPath)
	if err != nil {
		return err
	}
	f := stability.NewSnapshotFollower(chainPath)
	start := now()
	st, err := f.Poll()
	lg["store.poll_ms"] = ms(b.tr.interval("pass store poll", root, start))
	if err != nil {
		return err
	}
	if st == nil || st.NumReceipts() != len(b.in.monthOf) {
		return checkf("store pass polled %v receipts, want %d", st, len(b.in.monthOf))
	}
	lg["store.bytes"] = float64(info.Size())
	out, err := os.Create(filepath.Join(dir, "rewrite.stb"))
	if err != nil {
		return err
	}
	start = now()
	err = stability.WriteSnapshot(out, st)
	lg["store.write_ms"] = ms(b.tr.interval("pass store write", root, start))
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}
