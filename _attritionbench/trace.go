package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval. Client spans and the handler spans they
// cause share a request id (the client span's id); layer passes nest
// under the round that ran them.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
}

// tracer keeps spans in memory; write stores them when the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

func (t *tracer) newID() int64 { return t.next.Add(1) }

// at is t's offset from the tracer's epoch, in nanoseconds.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// interval records a span from start to now and returns its duration.
func (t *tracer) interval(name string, parent int64, start time.Time) time.Duration {
	end := now()
	t.add(span{Name: name, Start: t.at(start), End: t.at(end), Parent: parent})
	return end.Sub(start)
}

// wrap times Server.Handler().ServeHTTP per request and links the span
// to the client span through the request-id header.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := now()
		h.ServeHTTP(w, r)
		end := now()
		req, _ := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
		t.add(span{Name: "handler " + r.URL.Path, Start: t.at(start), End: t.at(end), Parent: req, Req: req})
	})
}

// mark returns the current span count, for httpSelf.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// httpSelf returns, per request recorded since mark, the client round
// trip minus the handler span it caused, in milliseconds.
func (t *tracer) httpSelf(mark int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	handler := make(map[int64]int64)
	for _, s := range t.spans[mark:] {
		if s.Parent != 0 && s.Req == s.Parent {
			handler[s.Req] = s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans[mark:] {
		if h, ok := handler[s.ID]; ok && s.Req == s.ID {
			out = append(out, float64(s.End-s.Start-h)/float64(time.Millisecond))
		}
	}
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
