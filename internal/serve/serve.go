// Package serve implements attritiond's HTTP layer: bounded-ingestion
// receipt POSTs, per-customer stability queries, alert delivery by
// long-poll or SSE, health and metrics — a thin, goroutine-free shell
// around stream.Ingestor. API.md is the wire reference; DESIGN.md
// "attritiond serving architecture" explains how the pieces fit.
//
// Handlers run on net/http's connection goroutines and never spawn their
// own (the determinism contract allows raw goroutines only in
// internal/population and internal/stream); all concurrency lives behind
// the Ingestor. Scored output (alerts, stability values, snapshots)
// remains a pure function of the accepted receipt sequence; the only
// wall-clock in this package is latency telemetry.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/gautrais/stability/internal/faultfs"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/stream"
)

// Config parameterizes a Server. The zero value is not usable: Monitor
// must hold a valid monitor configuration.
type Config struct {
	// Monitor configures the wrapped monitor (grid, model, β, warm-up).
	Monitor stream.Config
	// Shards is the ingestion shard count; <= 0 means GOMAXPROCS.
	Shards int
	// QueueBatches bounds the ingestion queue in batches; <= 0 means 64.
	QueueBatches int
	// Policy is the queue-overflow policy: block, shed, or reject (429).
	Policy stream.OverflowPolicy
	// MaxBatch caps receipts per POST; <= 0 means 10000. Larger batches
	// are refused with 413.
	MaxBatch int
	// MaxBodyBytes caps the POST body size; <= 0 means 8 MiB.
	MaxBodyBytes int64
	// AlertBuffer caps the in-memory alert log; <= 0 means 65536.
	AlertBuffer int
	// StatePath enables SMN1 persistence (restore on start, save on
	// Close and every SaveInterval). Empty disables persistence.
	StatePath string
	// SaveInterval is the background snapshot period; 0 disables it.
	SaveInterval time.Duration
	// FlushInterval is the alert-delivery liveness barrier period; 0
	// disables it.
	FlushInterval time.Duration
	// SSEHeartbeat is the SSE keep-alive comment period; <= 0 means 15s.
	SSEHeartbeat time.Duration
	// WriteDeadline bounds each response write; <= 0 means 1m. It replaces
	// a global http.Server WriteTimeout (which would kill SSE streams):
	// every handler arms a per-request deadline, and the streaming paths
	// roll it forward on every write, so only a stalled client trips it.
	WriteDeadline time.Duration
	// FollowPath switches ingestion to follow mode: the pipeline tails
	// this STB1 file via store.Follower instead of accepting POST
	// /v1/receipts (which answers 409 while following).
	FollowPath string
	// FollowInterval is the follow-mode poll period; <= 0 means 500ms.
	FollowInterval time.Duration
	// JournalPath enables the daemon-owned STB1 receipt journal: accepted
	// receipts are appended one segment per close barrier. Mutually
	// exclusive with FollowPath (a followed file is already the journal).
	JournalPath string
	// CompactInterval is the scheduled self-compaction period for
	// JournalPath; 0 disables the scheduled tick (Ingestor.Compact still
	// works on demand).
	CompactInterval time.Duration
	// FS is the filesystem under persistence, journal, and follower;
	// nil means the real one. Tests inject faults through it.
	FS faultfs.FS
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 10000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.SSEHeartbeat <= 0 {
		c.SSEHeartbeat = 15 * time.Second
	}
	if c.WriteDeadline <= 0 {
		c.WriteDeadline = time.Minute
	}
	return c
}

// Server is the attritiond HTTP service: an Ingestor plus the handlers
// that expose it. Create with New, mount Handler on an http.Server, and
// Close on shutdown (after http.Server.Shutdown has drained handlers).
type Server struct {
	cfg       Config
	ing       *stream.Ingestor
	mux       *http.ServeMux
	metrics   *serveMetrics
	closing   chan struct{}
	closeOnce sync.Once
}

// New validates cfg, restores state from cfg.StatePath when present, and
// returns a serving-ready Server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ing, err := stream.NewIngestor(stream.IngestorConfig{
		Monitor:         cfg.Monitor,
		Shards:          cfg.Shards,
		QueueBatches:    cfg.QueueBatches,
		Policy:          cfg.Policy,
		AlertBuffer:     cfg.AlertBuffer,
		StatePath:       cfg.StatePath,
		SaveInterval:    cfg.SaveInterval,
		FlushInterval:   cfg.FlushInterval,
		FollowPath:      cfg.FollowPath,
		FollowInterval:  cfg.FollowInterval,
		JournalPath:     cfg.JournalPath,
		CompactInterval: cfg.CompactInterval,
		FS:              cfg.FS,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		ing:     ing,
		mux:     http.NewServeMux(),
		metrics: newServeMetrics(),
		closing: make(chan struct{}),
	}
	s.route("POST /v1/receipts", "ingest", s.handleIngest)
	s.route("GET /v1/customers/{id}/stability", "stability", s.handleStability)
	s.route("POST /v1/stability:batch", "stability_batch", s.handleStabilityBatch)
	s.route("GET /v1/alerts", "alerts", s.handleAlerts)
	s.route("GET /healthz", "healthz", func(w http.ResponseWriter, _ *http.Request) int { return s.health(w, false) })
	s.route("GET /readyz", "readyz", func(w http.ResponseWriter, _ *http.Request) int { return s.health(w, true) })
	s.route("GET /metrics", "metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler serving the attritiond API.
func (s *Server) Handler() http.Handler { return s.mux }

// Ingestor exposes the underlying ingestion pipeline (metrics, pause,
// snapshots) for embedding processes like cmd/loadgen's self-serve mode.
func (s *Server) Ingestor() *stream.Ingestor { return s.ing }

// Close drains the ingestion queue, persists the final snapshot when
// StatePath is set, and stops the pipeline. Call after the http.Server
// has shut down, so no handler is mid-enqueue.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { close(s.closing) })
	err := s.ing.Close()
	if errors.Is(err, stream.ErrIngestorClosed) {
		return nil
	}
	return err
}

// route mounts a handler wrapped with latency recording, a rolling
// per-request write deadline, and panic recovery: a panicking handler
// answers 500 and bumps panics_recovered instead of killing the
// connection goroutine's response (http.ErrAbortHandler, the sanctioned
// abort, is re-raised for net/http to handle).
func (s *Server) route(pattern, name string, h func(http.ResponseWriter, *http.Request) int) {
	counters := s.metrics.endpoints[name]
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := now()
		s.extendWriteDeadline(w)
		status := 0
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				s.metrics.panics.Add(1)
				// Best effort: when the handler already wrote headers this
				// cannot reach the wire, but the connection stays serving.
				status = writeError(w, http.StatusInternalServerError, "internal error")
			}
			counters.record(now().Sub(start), status)
		}()
		status = h(w, r)
	})
}

// extendWriteDeadline (re)arms the per-request write deadline. Errors are
// ignored: test recorders don't support deadlines, and a connection
// already past its deadline fails at the next write regardless.
func (s *Server) extendWriteDeadline(w http.ResponseWriter) {
	_ = http.NewResponseController(w).SetWriteDeadline(now().Add(s.cfg.WriteDeadline))
}

// writeJSON emits a JSON response and returns the status for latency
// accounting.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
	return status
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) int {
	return writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleIngest implements POST /v1/receipts: decode, drop stale receipts,
// and enqueue the rest under the configured backpressure policy.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) int {
	if s.cfg.FollowPath != "" {
		return writeError(w, http.StatusConflict, "ingestion is file-driven (-follow %s); POST /v1/receipts is disabled", s.cfg.FollowPath)
	}
	select {
	case <-s.closing:
		return writeError(w, http.StatusServiceUnavailable, "server is shutting down")
	default:
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	events, err := decodeReceipts(r.Body, s.cfg.MaxBatch)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) || errors.Is(err, ErrBatchTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		return writeError(w, status, "%v", err)
	}
	// Stale receipts (window already closed, or pre-origin) can never be
	// scored: the monitor would only surface them as barrier errors, so
	// refuse them here and report the count.
	watermark := s.ing.Watermark()
	fresh := events[:0]
	stale := 0
	for _, ev := range events {
		if k := s.cfg.Monitor.Grid.Index(ev.Time); k < watermark || ev.Time.Before(s.cfg.Monitor.Grid.Origin()) {
			stale++
			continue
		}
		fresh = append(fresh, ev)
	}
	if stale > 0 {
		s.metrics.stale.Add(uint64(stale))
	}
	accepted, err := s.ing.Enqueue(fresh)
	switch {
	case errors.Is(err, stream.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(ErrorResponse{Error: "ingestion queue full", RetryAfterMS: 1000})
		return http.StatusTooManyRequests
	case errors.Is(err, stream.ErrIngestorClosed):
		return writeError(w, http.StatusServiceUnavailable, "server is shutting down")
	case err != nil:
		return writeError(w, http.StatusInternalServerError, "%v", err)
	}
	resp := IngestResponse{Stale: stale}
	if accepted {
		resp.Accepted = len(fresh)
	} else {
		resp.Shed = len(fresh)
	}
	return writeJSON(w, http.StatusOK, resp)
}

// handleStability implements GET /v1/customers/{id}/stability.
func (s *Server) handleStability(w http.ResponseWriter, r *http.Request) int {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "invalid customer id %q", r.PathValue("id"))
	}
	value, gridIndex, ok := s.ing.Stability(retail.CustomerID(id))
	if !ok {
		return writeError(w, http.StatusNotFound, "customer %d unknown or not yet scored", id)
	}
	return writeJSON(w, http.StatusOK, stabilityResponse(s.cfg.Monitor.Grid, id, value, gridIndex))
}

// handleStabilityBatch implements POST /v1/stability:batch: NDJSON queries
// in, NDJSON answers out, one line per query in request order. All queries
// are resolved through a single Ingestor.Stabilities call — one monitor
// synchronization for the whole fan-in instead of one per customer — and
// each response line is byte-identical to what the corresponding single
// GET /v1/customers/{id}/stability would return (a StabilityResponse for a
// scored customer, the same not-found ErrorResponse body for an unknown
// one; the differential tests pin this at shards {1,2,4,8}). Batches over
// Config.MaxBatch answer 413 before any lookup runs.
//
// The body is parsed in one pass and the answer lines are appended into a
// pooled buffer (batch.go). decodeBatchQueries and json.Encoder remain the
// reference for both; decodeBatchQueries takes every body the one-pass
// parse does not.
func (s *Server) handleStabilityBatch(w http.ResponseWriter, r *http.Request) int {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	sc := batchPool.Get().(*batchScratch)
	defer sc.release()
	ids, err := sc.decodeQueries(r.Body, s.cfg.MaxBatch)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) || errors.Is(err, ErrBatchTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		return writeError(w, status, "%v", err)
	}
	sc.rows = s.ing.Stabilities(ids, sc.rows)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	sc.writeRows(w, s.cfg.Monitor.Grid)
	return http.StatusOK
}

// maxAlertsPerPoll caps ?max= on GET /v1/alerts; larger (or zero) values
// are clamped so a single poll response stays bounded.
const maxAlertsPerPoll = 100000

// longPollMax caps the ?wait= duration of GET /v1/alerts.
const longPollMax = 30 * time.Second

// handleAlerts implements GET /v1/alerts: a single poll by default, a
// long-poll with ?wait=, or an SSE stream with ?stream=sse (or Accept:
// text/event-stream). Clients resume with ?after=<last seq>.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) int {
	q := r.URL.Query()
	after, err := parseUintParam(q.Get("after"), 0)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "invalid after: %v", err)
	}
	max, err := parseUintParam(q.Get("max"), 1000)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "invalid max: %v", err)
	}
	// AlertsSince treats max <= 0 as unlimited; clamp so neither ?max=0 nor
	// a value that wraps negative in the int conversion bypasses the cap.
	if max == 0 || max > maxAlertsPerPoll {
		max = maxAlertsPerPoll
	}
	if q.Get("stream") == "sse" || r.Header.Get("Accept") == "text/event-stream" {
		return s.streamSSE(w, r, after)
	}
	var wait time.Duration
	if ws := q.Get("wait"); ws != "" {
		wait, err = time.ParseDuration(ws)
		if err != nil {
			return writeError(w, http.StatusBadRequest, "invalid wait: %v", err)
		}
		wait = min(wait, longPollMax)
	}
	batch, oldest, changed := s.ing.AlertsSince(after, int(max))
	if len(batch) == 0 && wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-changed:
			batch, oldest, _ = s.ing.AlertsSince(after, int(max))
		case <-timer.C:
		case <-r.Context().Done():
		case <-s.closing:
		}
		// The wait may have consumed most of the request's deadline; the
		// response write gets a fresh one.
		s.extendWriteDeadline(w)
	}
	resp := AlertsResponse{Alerts: make([]AlertOut, 0, len(batch)), Next: after, Oldest: oldest}
	for _, a := range batch {
		resp.Alerts = append(resp.Alerts, toAlertOut(a))
	}
	if n := len(batch); n > 0 {
		resp.Next = batch[n-1].Seq
	}
	return writeJSON(w, http.StatusOK, resp)
}

// streamSSE delivers alerts as server-sent events until the client
// disconnects or the server closes. Framing (one event per alert):
//
//	id: <seq>
//	event: alert
//	data: <AlertOut JSON>
//
// with ": keep-alive" comment lines between publications. Clients resume
// with ?after= or the standard Last-Event-ID header.
func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, after uint64) int {
	flusher, ok := w.(http.Flusher)
	if !ok {
		return writeError(w, http.StatusNotImplemented, "response writer does not support streaming")
	}
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		if v, err := strconv.ParseUint(lei, 10, 64); err == nil && v > after {
			after = v
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	heartbeat := time.NewTicker(s.cfg.SSEHeartbeat)
	defer heartbeat.Stop()
	for {
		// Roll the write deadline forward each round: the select below
		// wakes at least every heartbeat, so a live client keeps the
		// stream open indefinitely while a stalled one trips the deadline.
		s.extendWriteDeadline(w)
		batch, _, changed := s.ing.AlertsSince(after, 0)
		for _, a := range batch {
			payload, err := json.Marshal(toAlertOut(a))
			if err != nil {
				return http.StatusOK
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: alert\ndata: %s\n\n", a.Seq, payload); err != nil {
				return http.StatusOK
			}
			after = a.Seq
		}
		flusher.Flush()
		select {
		case <-changed:
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return http.StatusOK
			}
			flusher.Flush()
		case <-r.Context().Done():
			return http.StatusOK
		case <-s.closing:
			return http.StatusOK
		}
	}
}

// health answers the two probes with one body. GET /healthz (readiness
// false) is the liveness probe: 200 "ok" as long as the process serves
// requests, even when a maintenance loop is degraded (restarting a live
// daemon loses queued receipts and helps nothing); the degraded detail
// rides along for operators. GET /readyz (readiness true) answers 200
// "ready", or 503 "degraded" while maintenance (saver failing, compactor
// backing off, follower stalled) is degraded: the daemon should stop
// receiving new traffic but keep running. Both answer 503 "closing" during
// shutdown.
func (s *Server) health(w http.ResponseWriter, readiness bool) int {
	health := s.ing.Health()
	resp := HealthResponse{
		Status:    "ok",
		Customers: s.ing.Customers(),
		Watermark: s.ing.Watermark(),
		Degraded:  health.Degraded,
		Reasons:   health.Reasons,
	}
	status := http.StatusOK
	if readiness {
		resp.Status = "ready"
		if health.Degraded {
			resp.Status, status = "degraded", http.StatusServiceUnavailable
		}
	}
	select {
	case <-s.closing:
		resp.Status, status = "closing", http.StatusServiceUnavailable
	default:
	}
	return writeJSON(w, status, resp)
}

// handleMetrics implements GET /metrics: ingestion counters + serving
// counters + per-endpoint latency, as one flat JSON object.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	return writeJSON(w, http.StatusOK, MetricsResponse{
		IngestorMetrics: s.ing.Metrics(),
		ReceiptsStale:   s.metrics.stale.Load(),
		PanicsRecovered: s.metrics.panics.Load(),
		Endpoints:       s.metrics.snapshot(),
	})
}

func parseUintParam(s string, def uint64) (uint64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseUint(s, 10, 64)
}
