package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/gautrais/stability"
)

// daemon is attritiond served in-process: a Server behind an http.Server
// on a loopback listener, shut down the way attritiond shuts down on
// SIGTERM. It never runs as a child process.
type daemon struct {
	srv     *stability.Server
	http    *http.Server
	served  chan struct{}
	base    string
	stopped bool
	// setup is setup_s: start of NewServer to the first 200 from /readyz.
	setup time.Duration
}

// startDaemon binds the listener, then builds the Server; the returned
// time is the start of NewServer, where setup_s begins.
func startDaemon(cfg stability.ServerConfig, wrap func(http.Handler) http.Handler) (*daemon, time.Time, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, time.Time{}, err
	}
	start := now()
	srv, err := stability.NewServer(cfg)
	if err != nil {
		ln.Close()
		return nil, start, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{
		srv: srv,
		http: &http.Server{
			Handler:           h,
			ReadTimeout:       time.Minute,
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(d.served)
		_ = d.http.Serve(ln)
	}()
	return d, start, nil
}

func (d *daemon) ingestor() *stability.Ingestor { return d.srv.Ingestor() }

// stop runs http.Server.Shutdown and Server.Close (drain, final barrier,
// journal flush, SMN1 save with fsync) and waits for Serve to return. It
// is safe to call twice; the second call does nothing.
func (d *daemon) stop() (time.Duration, error) {
	if d.stopped {
		return 0, nil
	}
	d.stopped = true
	start := now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err := d.http.Shutdown(ctx)
	cancel()
	if err != nil {
		d.http.Close()
	}
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	took := now().Sub(start)
	<-d.served
	return took, err
}

// waitIngested polls Metrics until the daemon has handed want receipts to
// the monitor, sleeping 200µs between polls so the CPU stays with the
// daemon. Metrics is the only public count of ingested receipts, and it
// round-trips through every shard, so callers poll only once the last
// receipt has been sent.
func waitIngested(ctx context.Context, ing *stability.Ingestor, want int) (time.Time, error) {
	for {
		if ing.Metrics().ReceiptsIngested >= uint64(want) {
			return now(), nil
		}
		if err := sleepUntil(ctx, now().Add(200*time.Microsecond)); err != nil {
			return time.Time{}, err
		}
	}
}

// sleepUntil waits for t or for ctx to end.
func sleepUntil(ctx context.Context, t time.Time) error {
	timer := time.NewTimer(t.Sub(now()))
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// heapMB is the post-GC live heap in MiB. Episodes read it after their
// query sweep, which changes no daemon state: read before it, the forced GC
// would start every sweep on a clean heap, so whether a collection fell
// inside the sweep would be the same in every episode of a run and differ
// between seeds, and the query p99 with it.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// conn is one client connection: its own Transport capped at one TCP
// connection, a reused request buffer and a reused response buffer.
type conn struct {
	hc    *http.Client
	tr    *http.Transport
	base  string
	body  []byte
	resp  bytes.Buffer
	trace *tracer
	// last is when the previous response completed: the due time of the
	// next closed-loop send.
	last time.Time
}

func newConn(base string, t *tracer) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr}, tr: tr, base: base, trace: t}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// load reads a pre-encoded body into the connection's buffer.
func (c *conn) load(f *os.File, ref bodyRef) ([]byte, error) {
	if cap(c.body) < ref.size {
		c.body = make([]byte, ref.size)
	}
	c.body = c.body[:ref.size]
	if _, err := f.ReadAt(c.body, ref.off); err != nil {
		return nil, err
	}
	return c.body, nil
}

// requestIDHeader carries the client span id to the handler wrapper.
const requestIDHeader = "X-Bench-Request-Id"

// do sends one request and reads the whole response into c.resp. It
// returns the status and the send and completion times.
func (c *conn) do(ctx context.Context, name, method, path, ctype string, body []byte) (int, time.Time, time.Time, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, time.Time{}, time.Time{}, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	var id int64
	if c.trace != nil {
		id = c.trace.newID()
		req.Header.Set(requestIDHeader, strconv.FormatInt(id, 10))
	}
	start := now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, start, now(), err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	end := now()
	c.last = end
	if c.trace != nil {
		c.trace.add(span{ID: id, Name: name, Start: c.trace.at(start), End: c.trace.at(end), Req: id})
	}
	return resp.StatusCode, start, end, err
}

// ready polls GET /readyz until it answers 200.
func (c *conn) ready(ctx context.Context) (time.Time, error) {
	for {
		status, _, end, err := c.do(ctx, "client.readyz", http.MethodGet, "/readyz", "", nil)
		if err == nil && status == http.StatusOK {
			return end, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return time.Time{}, cerr
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// observer records when each alert first appears in AlertsSince: the
// alert-lag clock stops there, in-process, with no extra connection.
type observer struct {
	ing  *stability.Ingestor
	stop chan struct{}
	done chan struct{}
	seen []seenAlert
}

type seenAlert struct {
	k  int
	at time.Time
}

func observe(ing *stability.Ingestor) *observer {
	o := &observer{ing: ing, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(o.done)
		var after uint64
		for {
			batch, _, wait := o.ing.AlertsSince(after, 0)
			if len(batch) > 0 {
				at := now()
				for _, a := range batch {
					o.seen = append(o.seen, seenAlert{k: a.GridIndex, at: at})
				}
				after = batch[len(batch)-1].Seq
			}
			select {
			case <-wait:
			case <-o.stop:
				return
			}
		}
	}()
	return o
}

// close stops the observer and waits for it to exit.
func (o *observer) close() {
	select {
	case <-o.stop:
	default:
		close(o.stop)
	}
	<-o.done
}

// group runs goroutines and keeps the first error; wait joins them all.
type group struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	err  error
	stop context.CancelFunc
}

func (g *group) goRun(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.mu.Lock()
			if g.err == nil {
				g.err = err
				if g.stop != nil {
					g.stop()
				}
			}
			g.mu.Unlock()
		}
	}()
}

func (g *group) wait() error {
	g.wg.Wait()
	return g.err
}

// errCheck marks an output that differs from the reference replay.
var errCheck = errors.New("output check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}
