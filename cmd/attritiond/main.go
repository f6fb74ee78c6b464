// Command attritiond is attrition-as-a-service: a long-running HTTP
// daemon that ingests live receipt batches into the sharded streaming
// monitor, answers per-customer stability queries, and streams defection
// alerts — the production deployment shape of the paper's model.
//
//	attritiond -addr :8080 -origin 2012-05 -state mon.smn
//
// Endpoints (see API.md for the full reference):
//
//	POST /v1/receipts                     batched ingestion (bounded queue)
//	GET  /v1/customers/{id}/stability     last scored stability
//	POST /v1/stability:batch              batch stability queries (NDJSON)
//	GET  /v1/alerts                       long-poll or SSE alert stream
//	GET  /healthz                         liveness (degraded detail rides along)
//	GET  /readyz                          readiness (503 when degraded)
//	GET  /metrics                         counters + per-endpoint latency
//
// The ingestion queue is bounded; -policy picks what happens when it
// fills: block (producers stall), shed (drop and count), or reject
// (429 + Retry-After). With -state, the daemon restores the monitor
// snapshot on start, saves it every -save-interval, and persists it
// atomically on SIGINT/SIGTERM after draining the queue — windows past
// the watermark stay open, so a restart resumes losslessly and the alert
// stream across restarts is byte-identical to an uninterrupted run.
//
// With -follow, the daemon tails a growing STB1 snapshot as its ingest
// source instead of HTTP (surviving compaction of the tailed file by
// resyncing), and with -journal it keeps its own crash-safe STB1 receipt
// journal, self-compacted every -compact-interval. See the README runbook
// and DESIGN.md "Self-healing maintenance".
//
// -pprof ADDR starts net/http/pprof on a separate listener (never the
// public mux) for live CPU/heap capture; see the README profiling
// runbook.
//
// Scored output is wall-clock free: alerts and snapshots are a pure
// function of the accepted receipt sequence, so the daemon's results are
// reproducible by replaying the same receipts through `attrition
// monitor` (the differential tests in internal/serve pin this).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/gautrais/stability"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "attritiond:", err)
		os.Exit(1)
	}
}

// config carries the parsed flag set.
type config struct {
	addr string
	// pprofAddr, when non-empty, binds a second, debug-only listener
	// serving net/http/pprof. Opt-in and separate from the public address
	// so profiling endpoints are never exposed where receipts arrive.
	pprofAddr string
	serve     stability.ServerConfig
	// http.Server bounds. WriteTimeout is deliberately absent: a global
	// write timeout would kill long-lived SSE streams, so response writes
	// are bounded per request (serve.Config.WriteDeadline) instead.
	readTimeout       time.Duration
	readHeaderTimeout time.Duration
	idleTimeout       time.Duration
}

// parseFlags builds the server configuration from the command line.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("attritiond", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		pprofAddr    = fs.String("pprof", "", "debug listen address for net/http/pprof (e.g. localhost:6060); empty disables profiling endpoints")
		origin       = fs.String("origin", "2012-05", "window grid origin month (YYYY-MM); must match the receipt stream's first month")
		span         = fs.Int("span", 2, "window span in months")
		alpha        = fs.Float64("alpha", 2, "significance base α")
		beta         = fs.Float64("beta", 0.6, "loyalty threshold: alert at stability <= beta")
		topJ         = fs.Int("top", 3, "blamed products per alert")
		warmup       = fs.Int("warmup", 4, "windows of history before alerts may fire")
		shards       = fs.Int("shards", 0, "ingestion shards (customer-hash partitions); 0 = GOMAXPROCS")
		queue        = fs.Int("queue", 64, "ingestion queue bound, in batches")
		policy       = fs.String("policy", "block", "queue overflow policy: block, shed or reject (429)")
		maxBatch     = fs.Int("max-batch", 10000, "receipts per POST limit (413 beyond)")
		alertBuffer  = fs.Int("alert-buffer", 65536, "alerts retained for late consumers")
		state        = fs.String("state", "", "SMN1 snapshot path: restore on start, save periodically and on shutdown")
		saveInterval = fs.Duration("save-interval", time.Minute, "background snapshot period (0 disables; needs -state)")
		flushTick    = fs.Duration("flush-interval", 2*time.Second, "alert delivery liveness barrier period (0 disables)")
		retention    = fs.Int("retention", 0, "retention horizon in windows: customers silent that long are scored through the horizon and evicted; 0 keeps everyone forever")

		follow          = fs.String("follow", "", "STB1 snapshot to tail as the ingest source instead of HTTP (POST /v1/receipts answers 409)")
		followPoll      = fs.Duration("follow-poll", 500*time.Millisecond, "follow-mode poll period (needs -follow)")
		journal         = fs.String("journal", "", "STB1 receipt journal path: accepted receipts are appended one segment per close barrier (exclusive with -follow)")
		compactInterval = fs.Duration("compact-interval", 0, "scheduled journal self-compaction period (0 disables; needs -journal)")

		readTimeout       = fs.Duration("read-timeout", time.Minute, "http.Server ReadTimeout: full-request read bound (0 disables)")
		readHeaderTimeout = fs.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout: slow-client header bound (0 disables)")
		idleTimeout       = fs.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout: keep-alive connection bound (0 disables)")
		writeDeadline     = fs.Duration("write-deadline", time.Minute, "per-request response write deadline, rolled forward on streaming paths (the global WriteTimeout stays 0 so SSE survives)")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	o, err := time.Parse("2006-01", *origin)
	if err != nil {
		return config{}, fmt.Errorf("invalid -origin %q (want YYYY-MM): %w", *origin, err)
	}
	grid, err := stability.NewGrid(o, *span)
	if err != nil {
		return config{}, err
	}
	pol, err := stability.ParseIngestPolicy(*policy)
	if err != nil {
		return config{}, err
	}
	return config{
		addr:      *addr,
		pprofAddr: *pprofAddr,
		serve: stability.ServerConfig{
			Monitor: stability.MonitorConfig{
				Grid:             grid,
				Model:            stability.Options{Alpha: *alpha},
				Beta:             *beta,
				TopJ:             *topJ,
				WarmupWindows:    *warmup,
				RetentionWindows: *retention,
			},
			Shards:          *shards,
			QueueBatches:    *queue,
			Policy:          pol,
			MaxBatch:        *maxBatch,
			AlertBuffer:     *alertBuffer,
			StatePath:       *state,
			SaveInterval:    *saveInterval,
			FlushInterval:   *flushTick,
			FollowPath:      *follow,
			FollowInterval:  *followPoll,
			JournalPath:     *journal,
			CompactInterval: *compactInterval,
			WriteDeadline:   *writeDeadline,
		},
		readTimeout:       *readTimeout,
		readHeaderTimeout: *readHeaderTimeout,
		idleTimeout:       *idleTimeout,
	}, nil
}

// run parses flags, binds the listener, and serves until SIGINT/SIGTERM.
func run(args []string, stderr *os.File) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	return serveUntilSignal(cfg, ln, stderr)
}

// servePprof binds the opt-in debug listener and serves net/http/pprof on
// it until the listener is closed. The profiler rides its own mux (never
// the public one) and its own goroutine: purely diagnostic reads of
// runtime state that cannot reach scored output.
func servePprof(addr string, stderr *os.File) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(stderr, "attritiond: pprof debug listener on %s\n", ln.Addr())
	//detlint:ignore R3 debug-only pprof accept loop; serves runtime telemetry to operators and never touches the receipt pipeline or scored output
	go func() { _ = srv.Serve(ln) }()
	return ln, nil
}

// serveUntilSignal runs the daemon on an existing listener until the
// process is signalled (or the listener fails), then drains and persists.
// Split from run so tests can drive a real daemon on a loopback listener.
func serveUntilSignal(cfg config, ln net.Listener, stderr *os.File) error {
	srv, err := stability.NewServer(cfg.serve)
	if err != nil {
		ln.Close()
		return err
	}
	if cfg.pprofAddr != "" {
		dbg, err := servePprof(cfg.pprofAddr, stderr)
		if err != nil {
			ln.Close()
			srv.Close()
			return err
		}
		defer dbg.Close()
	}
	// Requests derive their contexts from base, which shutdown cancels
	// first: long-polls and SSE streams end on r.Context().Done(), so
	// they do not hold the drain, while a request still reading its body
	// or enqueueing is not interrupted.
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadTimeout:       cfg.readTimeout,
		ReadHeaderTimeout: cfg.readHeaderTimeout,
		IdleTimeout:       cfg.idleTimeout,
		BaseContext:       func(net.Listener) context.Context { return base },
		// WriteTimeout stays 0: serve arms per-request write deadlines and
		// rolls them forward on the streaming paths, which bounds stalled
		// clients without cutting healthy SSE streams off mid-flight.
	}

	// shutdown stops accepting and waits, bounded, for in-flight handlers
	// to return. It runs once: on signal, off this stack via AfterFunc (no
	// raw goroutine needed), and again below, where a second call waits
	// for the first to finish.
	var shutdownOnce sync.Once
	shutdown := func() {
		shutdownOnce.Do(func() {
			cancelBase()
			sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(sctx)
		})
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stopShutdown := context.AfterFunc(ctx, shutdown)
	defer stopShutdown()

	fmt.Fprintf(stderr, "attritiond: listening on %s (policy %s, %d-batch queue, state %q)\n",
		ln.Addr(), cfg.serve.Policy, cfg.serve.QueueBatches, cfg.serve.StatePath)
	err = httpSrv.Serve(ln)
	// Serve returns as soon as Shutdown begins (or the listener fails),
	// while handlers may still run; wait until they have returned.
	shutdown()
	if err != http.ErrServerClosed {
		srv.Close()
		return err
	}
	// Handlers have returned; drain the ingestion queue, deliver buffered
	// alerts, persist the final snapshot, stop the pipeline.
	if err := srv.Close(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(stderr, "attritiond: drained and persisted, bye")
	return nil
}
