package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/stream"
	"github.com/gautrais/stability/internal/window"
)

func testGrid(t testing.TB) window.Grid {
	t.Helper()
	g, err := window.NewGrid(time.Date(2012, time.May, 1, 0, 0, 0, 0, time.UTC), window.Span{Months: 2})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testMonitorConfig(t *testing.T) stream.Config {
	t.Helper()
	return stream.Config{
		Grid:          testGrid(t),
		Model:         core.Options{Alpha: 2},
		Beta:          0.7,
		TopJ:          3,
		WarmupWindows: 2,
	}
}

// testFeed builds the same kind of time-sorted multi-customer feed the
// stream tests use: ids spread across shards, baskets drawn from a small
// catalog so stability erodes and alerts fire.
func testFeed(t *testing.T, seed int64, customers, events int) []ReceiptIn {
	t.Helper()
	g := testGrid(t)
	r := rand.New(rand.NewSource(seed))
	day := 0
	feed := make([]ReceiptIn, 0, events)
	for i := 0; i < events; i++ {
		day += r.Intn(6)
		items := make([]uint32, r.Intn(5))
		for j := range items {
			items[j] = uint32(r.Intn(8) + 1)
		}
		feed = append(feed, ReceiptIn{
			Customer: uint64(r.Intn(customers)*7919 + 1),
			Time:     g.Origin().AddDate(0, 0, day).Add(7 * time.Hour),
			Items:    items,
		})
	}
	return feed
}

// referenceReplay drives the feed through the sequential single-threaded
// Monitor under the daemon's exact barrier rule (close every provably
// complete window when a receipt's month advances) and returns the
// delivery-sequenced alerts plus the final SMN1 snapshot — the ground
// truth the HTTP pipeline must reproduce byte for byte.
func referenceReplay(t *testing.T, cfg stream.Config, feed []ReceiptIn) ([]stream.SeqAlert, []byte) {
	t.Helper()
	m, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	origin := cfg.Grid.Origin()
	span := cfg.Grid.Span().Months
	maxMonth := math.MinInt / 2
	lastClosedK := -1
	var alerts []stream.SeqAlert
	var pending []stream.Alert
	emit := func(batch []stream.Alert) {
		sort.Slice(batch, func(i, j int) bool {
			if batch[i].GridIndex != batch[j].GridIndex {
				return batch[i].GridIndex < batch[j].GridIndex
			}
			return batch[i].Customer < batch[j].Customer
		})
		for _, a := range batch {
			alerts = append(alerts, stream.SeqAlert{Seq: uint64(len(alerts)) + 1, Alert: a})
		}
	}
	for _, rc := range feed {
		utc := rc.Time.UTC()
		mo := (utc.Year()-origin.Year())*12 + int(utc.Month()) - int(origin.Month())
		if mo > maxMonth {
			maxMonth = mo
			if closeK := mo/span - 1; closeK > lastClosedK {
				pending = append(pending, m.CloseThrough(closeK)...)
				emit(pending)
				pending = nil
				lastClosedK = closeK
			}
		}
		items := make([]retail.ItemID, len(rc.Items))
		for j, it := range rc.Items {
			items[j] = retail.ItemID(it)
		}
		a, err := m.Ingest(retail.CustomerID(rc.Customer), rc.Time, retail.NewBasket(items))
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, a...)
	}
	emit(pending)
	var snap bytes.Buffer
	if err := m.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	return alerts, snap.Bytes()
}

// testServer builds a Server plus an httptest front end; mutate tweaks the
// config before New.
func testServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Monitor: testMonitorConfig(t), Shards: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postReceipts POSTs one batch and decodes the response body into out
// (when non-nil), returning the status code.
func postReceipts(t *testing.T, url string, batch []ReceiptIn, out any) int {
	t.Helper()
	body, err := json.Marshal(IngestRequest{Receipts: batch})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/receipts", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode ingest response: %v", err)
		}
	}
	return resp.StatusCode
}

// getJSON GETs a path and decodes the JSON body, returning the status.
func getJSON(t *testing.T, url, path string, out any) int {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// fetchAlerts pages through GET /v1/alerts with a small page size until it
// catches up.
func fetchAlerts(t *testing.T, url string) []AlertOut {
	t.Helper()
	var out []AlertOut
	after := uint64(0)
	for {
		var page AlertsResponse
		if code := getJSON(t, url, fmt.Sprintf("/v1/alerts?after=%d&max=57", after), &page); code != http.StatusOK {
			t.Fatalf("GET /v1/alerts: status %d", code)
		}
		out = append(out, page.Alerts...)
		if len(page.Alerts) == 0 {
			return out
		}
		after = page.Next
	}
}

// encodeWire renders alerts in the wire form (one AlertOut JSON per line),
// the byte-level comparator of the differential tests.
func encodeWire(t *testing.T, alerts []AlertOut) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, a := range alerts {
		if err := enc.Encode(a); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// waitWatermark polls until the drainer has advanced the watermark to at
// least k (barriers fire asynchronously on the drainer goroutine).
func waitWatermark(t *testing.T, s *Server, k int) {
	t.Helper()
	for tries := 0; tries < 2000; tries++ {
		if s.Ingestor().Watermark() >= k {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("watermark never reached %d (at %d)", k, s.Ingestor().Watermark())
}

// TestServerDifferential is the daemon-level half of the determinism
// contract: for every shard count and every backpressure policy, receipts
// POSTed through the HTTP layer yield an alert stream and a persisted SMN1
// snapshot byte-identical to a sequential Monitor replay of the same feed.
func TestServerDifferential(t *testing.T) {
	feed := testFeed(t, 11, 12, 400)
	wantAlerts, wantSnap := referenceReplay(t, testMonitorConfig(t), feed)
	if len(wantAlerts) == 0 {
		t.Fatal("reference produced no alerts; feed too tame to prove anything")
	}
	var wantWire bytes.Buffer
	if err := EncodeAlerts(&wantWire, wantAlerts); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, policy := range []stream.OverflowPolicy{stream.PolicyBlock, stream.PolicyShed, stream.PolicyReject} {
			t.Run(fmt.Sprintf("shards=%d/policy=%s", shards, policy), func(t *testing.T) {
				state := filepath.Join(t.TempDir(), "mon.smn")
				s, ts := testServer(t, func(c *Config) {
					c.Shards = shards
					c.Policy = policy
					c.StatePath = state
					// Large enough that shed/reject never trigger: overflow-free
					// runs must be identical under every policy.
					c.QueueBatches = len(feed)
					c.FlushInterval = time.Millisecond
				})
				for start := 0; start < len(feed); start += 19 {
					end := start + 19
					if end > len(feed) {
						end = len(feed)
					}
					var ir IngestResponse
					if code := postReceipts(t, ts.URL, feed[start:end], &ir); code != http.StatusOK {
						t.Fatalf("POST batch at %d: status %d", start, code)
					}
					if ir.Accepted != end-start || ir.Shed != 0 || ir.Stale != 0 {
						t.Fatalf("POST batch at %d: disposition %+v", start, ir)
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				gotWire := encodeWire(t, fetchAlerts(t, ts.URL))
				if !bytes.Equal(wantWire.Bytes(), gotWire) {
					t.Error("alert wire bytes differ from sequential Monitor replay")
				}
				gotSnap, err := os.ReadFile(state)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wantSnap, gotSnap) {
					t.Error("persisted snapshot differs from sequential Monitor replay")
				}
			})
		}
	}
}

// TestServerOffsetTimestamps POSTs the feed with every timestamp spelled
// in a non-UTC zone, with evening instants so spellings like
// 2012-07-01T01:30:00+05:30 (June 30 in UTC) name a month their UTC
// reading hasn't reached, and pins the wire output byte-identical to the
// sequential replay. Regression test: the drainer indexed months in the
// spelling's own zone while the stale filter used Grid.Index (UTC), so
// such receipts closed windows early and the two layers disagreed.
func TestServerOffsetTimestamps(t *testing.T) {
	zone := time.FixedZone("UTC+5:30", 5*3600+1800)
	feed := testFeed(t, 11, 12, 400)
	crossings := 0
	for i := range feed {
		// 07:00 → 20:00 UTC, spelled 01:30 next day in the +05:30 zone.
		feed[i].Time = feed[i].Time.Add(13 * time.Hour).In(zone)
		if feed[i].Time.Month() != feed[i].Time.UTC().Month() {
			crossings++
		}
	}
	if crossings == 0 {
		t.Fatal("no spelling crosses a month boundary; feed proves nothing")
	}
	wantAlerts, wantSnap := referenceReplay(t, testMonitorConfig(t), feed)
	if len(wantAlerts) == 0 {
		t.Fatal("reference produced no alerts; feed too tame to prove anything")
	}
	var wantWire bytes.Buffer
	if err := EncodeAlerts(&wantWire, wantAlerts); err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(t.TempDir(), "mon.smn")
	s, ts := testServer(t, func(c *Config) { c.Shards = 4; c.StatePath = state })
	for start := 0; start < len(feed); start += 19 {
		end := start + 19
		if end > len(feed) {
			end = len(feed)
		}
		var ir IngestResponse
		if code := postReceipts(t, ts.URL, feed[start:end], &ir); code != http.StatusOK {
			t.Fatalf("POST batch at %d: status %d", start, code)
		}
		if ir.Accepted != end-start || ir.Stale != 0 {
			t.Fatalf("POST batch at %d: disposition %+v", start, ir)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if gotWire := encodeWire(t, fetchAlerts(t, ts.URL)); !bytes.Equal(wantWire.Bytes(), gotWire) {
		t.Error("offset-spelled feed: alert wire bytes differ from sequential replay")
	}
	gotSnap, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantSnap, gotSnap) {
		t.Error("offset-spelled feed: persisted snapshot differs from sequential replay")
	}
}

// TestServerCloseConcurrent is a regression test: two racing Close calls
// used to both reach close(s.closing) and the loser panicked.
func TestServerCloseConcurrent(t *testing.T) {
	s, _ := testServer(t, nil)
	const callers = 4
	done := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() { done <- s.Close() }()
	}
	for i := 0; i < callers; i++ {
		if err := <-done; err != nil {
			t.Errorf("concurrent Close: %v", err)
		}
	}
}

// TestServerShutdownRoundTrip kills the daemon mid-feed and restarts it
// from the persisted state: the concatenated alert streams must equal an
// uninterrupted run's, modulo the per-process sequence numbers.
func TestServerShutdownRoundTrip(t *testing.T) {
	feed := testFeed(t, 23, 10, 360)
	wantAlerts, wantSnap := referenceReplay(t, testMonitorConfig(t), feed)
	cut := len(feed) / 2
	state := filepath.Join(t.TempDir(), "mon.smn")

	var got []AlertOut
	for leg, part := range [][]ReceiptIn{feed[:cut], feed[cut:]} {
		s, ts := testServer(t, func(c *Config) { c.Shards = 4; c.StatePath = state })
		for start := 0; start < len(part); start += 23 {
			end := start + 23
			if end > len(part) {
				end = len(part)
			}
			if code := postReceipts(t, ts.URL, part[start:end], nil); code != http.StatusOK {
				t.Fatalf("leg %d: POST status %d", leg, code)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("leg %d: close: %v", leg, err)
		}
		got = append(got, fetchAlerts(t, ts.URL)...)
	}
	// Sequence numbers restart on each leg; renumber the concatenation to
	// compare the delivered alerts themselves.
	for i := range got {
		got[i].Seq = uint64(i) + 1
	}
	var wantWire bytes.Buffer
	if err := EncodeAlerts(&wantWire, wantAlerts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantWire.Bytes(), encodeWire(t, got)) {
		t.Error("alerts across restart differ from uninterrupted run")
	}
	gotSnap, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantSnap, gotSnap) {
		t.Error("final snapshot differs from uninterrupted run")
	}
}

// TestServerIngestValidation covers the request-rejection surface of
// POST /v1/receipts.
func TestServerIngestValidation(t *testing.T) {
	_, ts := testServer(t, func(c *Config) {
		c.MaxBatch = 3
		c.MaxBodyBytes = 1 << 20
	})
	g := testGrid(t)

	resp, err := http.Post(ts.URL+"/v1/receipts", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	big := make([]ReceiptIn, 4)
	for i := range big {
		big[i] = ReceiptIn{Customer: uint64(i + 1), Time: g.Origin(), Items: []uint32{1}}
	}
	var er ErrorResponse
	if code := postReceipts(t, ts.URL, big, &er); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize batch: status %d, want 413", code)
	} else if !strings.Contains(er.Error, "receipt limit") {
		t.Errorf("oversize batch error = %q", er.Error)
	}

	resp, err = http.Post(ts.URL+"/v1/receipts", "application/json",
		strings.NewReader(`{"receipts":[{"customer":1,"time":"`+strings.Repeat("x", 2<<20)+`"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: status %d, want 413", resp.StatusCode)
	}

	if code := getJSON(t, ts.URL, "/v1/receipts", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST route: status %d, want 405", code)
	}
	if code := getJSON(t, ts.URL, "/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", code)
	}
}

// TestServerStaleReceipts pins the stale filter: receipts whose window the
// watermark has already closed (or that precede the grid origin) are
// refused, counted, and reported.
func TestServerStaleReceipts(t *testing.T) {
	s, ts := testServer(t, nil)
	g := testGrid(t)
	// Receipts in months 0 and 2 close window 0 at the month-2 barrier.
	warm := []ReceiptIn{
		{Customer: 1, Time: g.Origin().Add(7 * time.Hour), Items: []uint32{1}},
		{Customer: 1, Time: g.Origin().AddDate(0, 2, 0).Add(7 * time.Hour), Items: []uint32{1}},
	}
	if code := postReceipts(t, ts.URL, warm, nil); code != http.StatusOK {
		t.Fatalf("warm POST: status %d", code)
	}
	waitWatermark(t, s, 1)

	stale := []ReceiptIn{
		{Customer: 2, Time: g.Origin().Add(24 * time.Hour), Items: []uint32{2}},             // window 0: closed
		{Customer: 2, Time: g.Origin().AddDate(0, -1, 0), Items: []uint32{2}},               // pre-origin
		{Customer: 2, Time: g.Origin().AddDate(0, 2, 1).Add(time.Hour), Items: []uint32{2}}, // fresh
	}
	var ir IngestResponse
	if code := postReceipts(t, ts.URL, stale, &ir); code != http.StatusOK {
		t.Fatalf("stale POST: status %d", code)
	}
	if ir.Stale != 2 || ir.Accepted != 1 {
		t.Errorf("disposition %+v, want stale=2 accepted=1", ir)
	}
	var m MetricsResponse
	if code := getJSON(t, ts.URL, "/metrics", &m); code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	if m.ReceiptsStale != 2 {
		t.Errorf("receipts_stale = %d, want 2", m.ReceiptsStale)
	}
}

// backpressuredServer pauses the drainer and fills the one-batch queue so
// the next POST must take the overflow path.
func backpressuredServer(t *testing.T, policy stream.OverflowPolicy) (*Server, *httptest.Server) {
	t.Helper()
	s, ts := testServer(t, func(c *Config) {
		c.QueueBatches = 1
		c.Policy = policy
	})
	if err := s.Ingestor().Pause(); err != nil {
		t.Fatal(err)
	}
	g := testGrid(t)
	fill := []ReceiptIn{{Customer: 9, Time: g.Origin().Add(time.Hour), Items: []uint32{1}}}
	var ir IngestResponse
	if code := postReceipts(t, ts.URL, fill, &ir); code != http.StatusOK || ir.Accepted != 1 {
		t.Fatalf("fill POST: status %d, %+v", code, ir)
	}
	return s, ts
}

func overflowReceipts(t *testing.T, n int) []ReceiptIn {
	t.Helper()
	g := testGrid(t)
	out := make([]ReceiptIn, n)
	for i := range out {
		out[i] = ReceiptIn{Customer: uint64(50 + i), Time: g.Origin().Add(2 * time.Hour), Items: []uint32{3}}
	}
	return out
}

func TestServerBackpressureReject(t *testing.T) {
	s, ts := backpressuredServer(t, stream.PolicyReject)
	body, _ := json.Marshal(IngestRequest{Receipts: overflowReceipts(t, 2)})
	resp, err := http.Post(ts.URL+"/v1/receipts", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.RetryAfterMS != 1000 {
		t.Errorf("retry_after_ms = %d, want 1000", er.RetryAfterMS)
	}
	s.Ingestor().Resume()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if m := s.Ingestor().Metrics(); m.ReceiptsRejected != 2 || m.ReceiptsIngested != 1 {
		t.Errorf("counters after reject: %+v", m)
	}
}

func TestServerBackpressureShed(t *testing.T) {
	s, ts := backpressuredServer(t, stream.PolicyShed)
	var ir IngestResponse
	if code := postReceipts(t, ts.URL, overflowReceipts(t, 3), &ir); code != http.StatusOK {
		t.Fatalf("status %d, want 200 (shed is not an error)", code)
	}
	if ir.Shed != 3 || ir.Accepted != 0 {
		t.Errorf("disposition %+v, want shed=3", ir)
	}
	s.Ingestor().Resume()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if m := s.Ingestor().Metrics(); m.ReceiptsShed != 3 || m.ReceiptsIngested != 1 {
		t.Errorf("counters after shed: %+v", m)
	}
}

func TestServerBackpressureBlock(t *testing.T) {
	s, ts := backpressuredServer(t, stream.PolicyBlock)
	done := make(chan IngestResponse, 1)
	go func() {
		var ir IngestResponse
		postReceipts(t, ts.URL, overflowReceipts(t, 2), &ir)
		done <- ir
	}()
	select {
	case ir := <-done:
		t.Fatalf("POST returned %+v while queue full and drainer paused", ir)
	case <-time.After(50 * time.Millisecond):
	}
	s.Ingestor().Resume()
	select {
	case ir := <-done:
		if ir.Accepted != 2 {
			t.Fatalf("unblocked POST disposition %+v", ir)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("POST still blocked after Resume")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if m := s.Ingestor().Metrics(); m.ReceiptsIngested != 3 || m.ReceiptsShed != 0 || m.ReceiptsRejected != 0 {
		t.Errorf("counters after block: %+v", m)
	}
}

// TestServerStability covers GET /v1/customers/{id}/stability.
func TestServerStability(t *testing.T) {
	s, ts := testServer(t, nil)
	g := testGrid(t)
	// Customer 1 purchases in windows 0 and 1; the window-1 receipt's month
	// (2) closes window 0, scoring it.
	feed := []ReceiptIn{
		{Customer: 1, Time: g.Origin().Add(7 * time.Hour), Items: []uint32{1, 2}},
		{Customer: 1, Time: g.Origin().AddDate(0, 1, 3), Items: []uint32{1, 2}},
		{Customer: 1, Time: g.Origin().AddDate(0, 2, 0).Add(7 * time.Hour), Items: []uint32{1, 2}},
	}
	if code := postReceipts(t, ts.URL, feed, nil); code != http.StatusOK {
		t.Fatalf("POST: status %d", code)
	}
	waitWatermark(t, s, 1)

	if code := getJSON(t, ts.URL, "/v1/customers/abc/stability", nil); code != http.StatusBadRequest {
		t.Errorf("bad id: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL, "/v1/customers/777/stability", nil); code != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", code)
	}

	var sr StabilityResponse
	if code := getJSON(t, ts.URL, "/v1/customers/1/stability", &sr); code != http.StatusOK {
		t.Fatalf("known id: status %d", code)
	}
	value, gridIndex, ok := s.Ingestor().Stability(1)
	if !ok {
		t.Fatal("ingestor lost customer 1")
	}
	start, end := g.Bounds(gridIndex)
	if sr.Customer != 1 || sr.Stability != value || sr.Window != gridIndex ||
		!sr.Start.Equal(start) || !sr.End.Equal(end) {
		t.Errorf("stability response %+v, want value=%v window=%d [%v,%v)", sr, value, gridIndex, start, end)
	}
}

// TestServerAlertsParams covers cursor paging, the max cap, parameter
// validation, and the empty long-poll timeout.
func TestServerAlertsParams(t *testing.T) {
	feed := testFeed(t, 11, 12, 400)
	want, _ := referenceReplay(t, testMonitorConfig(t), feed)
	if len(want) < 4 {
		t.Fatalf("reference produced only %d alerts", len(want))
	}
	s, ts := testServer(t, nil)
	if code := postReceipts(t, ts.URL, feed, nil); code != http.StatusOK {
		t.Fatalf("POST: status %d", code)
	}
	if err := s.Close(); err != nil { // barrier everything
		t.Fatal(err)
	}

	if code := getJSON(t, ts.URL, "/v1/alerts?after=x", nil); code != http.StatusBadRequest {
		t.Errorf("bad after: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL, "/v1/alerts?max=-1", nil); code != http.StatusBadRequest {
		t.Errorf("bad max: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL, "/v1/alerts?wait=banana", nil); code != http.StatusBadRequest {
		t.Errorf("bad wait: status %d, want 400", code)
	}

	var page AlertsResponse
	if code := getJSON(t, ts.URL, "/v1/alerts?max=2", &page); code != http.StatusOK {
		t.Fatalf("GET: status %d", code)
	}
	if len(page.Alerts) != 2 || page.Alerts[0].Seq != 1 || page.Next != 2 || page.Oldest != 1 {
		t.Errorf("first page: %d alerts, next=%d oldest=%d", len(page.Alerts), page.Next, page.Oldest)
	}
	if code := getJSON(t, ts.URL, "/v1/alerts?after=2&max=2", &page); code != http.StatusOK {
		t.Fatalf("GET: status %d", code)
	}
	if len(page.Alerts) != 2 || page.Alerts[0].Seq != 3 {
		t.Errorf("second page starts at seq %d, want 3", page.Alerts[0].Seq)
	}

	// Caught up: a bounded long-poll returns an empty batch after its wait.
	last := want[len(want)-1].Seq
	if code := getJSON(t, ts.URL, fmt.Sprintf("/v1/alerts?after=%d&wait=10ms", last), &page); code != http.StatusOK {
		t.Fatalf("long-poll: status %d", code)
	}
	if len(page.Alerts) != 0 || page.Next != last {
		t.Errorf("caught-up long-poll: %d alerts, next=%d want %d", len(page.Alerts), page.Next, last)
	}

	// Hostile extremes (regression tests): an after cursor past MaxInt64
	// used to panic in the slice-offset conversion, and max values of 0 or
	// beyond MaxInt64 used to wrap into "unlimited" past the cap.
	for _, after := range []uint64{math.MaxInt64, math.MaxUint64} {
		if code := getJSON(t, ts.URL, fmt.Sprintf("/v1/alerts?after=%d", after), &page); code != http.StatusOK {
			t.Errorf("after=%d: status %d, want 200", after, code)
		} else if len(page.Alerts) != 0 {
			t.Errorf("after=%d: got %d alerts, want 0", after, len(page.Alerts))
		}
	}
	for _, maxQ := range []string{"0", "18446744073709551615"} {
		if code := getJSON(t, ts.URL, "/v1/alerts?max="+maxQ, &page); code != http.StatusOK {
			t.Errorf("max=%s: status %d, want 200", maxQ, code)
		} else if len(page.Alerts) == 0 || len(page.Alerts) > maxAlertsPerPoll {
			t.Errorf("max=%s: got %d alerts, want 1..%d", maxQ, len(page.Alerts), maxAlertsPerPoll)
		}
	}
}

// TestServerAlertsLongPollWake proves a parked long-poll wakes when the
// next barrier publishes alerts.
func TestServerAlertsLongPollWake(t *testing.T) {
	feed := testFeed(t, 11, 12, 400)
	want, _ := referenceReplay(t, testMonitorConfig(t), feed)
	cut := len(feed) / 2
	s, ts := testServer(t, nil)
	if code := postReceipts(t, ts.URL, feed[:cut], nil); code != http.StatusOK {
		t.Fatalf("POST: status %d", code)
	}
	// Wait until the first half is fully drained, then note where we are.
	for tries := 0; s.Ingestor().Metrics().ReceiptsIngested < uint64(cut); tries++ {
		if tries > 5000 {
			t.Fatal("first half never drained")
		}
		time.Sleep(time.Millisecond)
	}
	after := s.Ingestor().Metrics().AlertsEmitted
	if after >= uint64(len(want)) {
		t.Fatalf("first half already emitted all %d alerts; pick a different cut", len(want))
	}

	got := make(chan AlertsResponse, 1)
	go func() {
		var page AlertsResponse
		getJSON(t, ts.URL, fmt.Sprintf("/v1/alerts?after=%d&wait=30s", after), &page)
		got <- page
	}()
	select {
	case page := <-got:
		t.Fatalf("long-poll returned %d alerts before any new barrier", len(page.Alerts))
	case <-time.After(50 * time.Millisecond):
	}
	if code := postReceipts(t, ts.URL, feed[cut:], nil); code != http.StatusOK {
		t.Fatalf("POST second half: status %d", code)
	}
	select {
	case page := <-got:
		if len(page.Alerts) == 0 || page.Alerts[0].Seq != after+1 {
			t.Fatalf("woken long-poll: %d alerts, first seq %v, want seq %d",
				len(page.Alerts), page.Alerts, after+1)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never woke on publication")
	}
}

// TestServerSSE pins the SSE framing: id/event/data per alert, keep-alive
// comments, Last-Event-ID resume.
func TestServerSSE(t *testing.T) {
	feed := testFeed(t, 11, 12, 400)
	want, _ := referenceReplay(t, testMonitorConfig(t), feed)
	s, _ := testServer(t, func(c *Config) { c.SSEHeartbeat = 5 * time.Millisecond })
	if ok, err := s.Ingestor().Enqueue(toEvents(feed)); !ok || err != nil {
		t.Fatalf("enqueue: ok=%v err=%v", ok, err)
	}
	// Wait for the drainer, but do not Close: the stream must stay live so
	// heartbeats fire. Alerts pending behind the final barrier stay unseen.
	for tries := 0; s.Ingestor().Metrics().ReceiptsIngested < uint64(len(feed)); tries++ {
		if tries > 5000 {
			t.Fatal("feed never drained")
		}
		time.Sleep(time.Millisecond)
	}
	emitted := s.Ingestor().Metrics().AlertsEmitted
	if emitted < 4 {
		t.Fatalf("only %d alerts emitted before the final barrier", emitted)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest("GET", "/v1/alerts?stream=sse", nil).WithContext(ctx)
	req.Header.Set("Last-Event-ID", "2")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)

	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if strings.Contains(body, "id: 1\n") || strings.Contains(body, "id: 2\n") {
		t.Error("SSE replayed events at or before Last-Event-ID")
	}
	if !strings.Contains(body, ": keep-alive\n\n") {
		t.Error("SSE emitted no keep-alive comments")
	}
	frames := strings.Split(strings.TrimSuffix(body, "\n\n"), "\n\n")
	seq := uint64(3)
	for _, frame := range frames {
		if strings.HasPrefix(frame, ":") {
			continue
		}
		wantAlert := want[seq-1]
		payload, err := json.Marshal(toAlertOut(wantAlert))
		if err != nil {
			t.Fatal(err)
		}
		if frame != fmt.Sprintf("id: %d\nevent: alert\ndata: %s", seq, payload) {
			t.Fatalf("frame for seq %d:\n%q\nwant:\n%q", seq, frame,
				fmt.Sprintf("id: %d\nevent: alert\ndata: %s", seq, payload))
		}
		seq++
	}
	if seq != emitted+1 {
		t.Errorf("SSE delivered through seq %d, want %d", seq-1, emitted)
	}
}

// TestServerHealthzAndMetrics covers the two operator endpoints, including
// the closing flip and per-endpoint latency counters.
func TestServerHealthzAndMetrics(t *testing.T) {
	s, ts := testServer(t, nil)
	g := testGrid(t)

	var h HealthResponse
	if code := getJSON(t, ts.URL, "/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: status %d body %+v", code, h)
	}
	if code := postReceipts(t, ts.URL, []ReceiptIn{
		{Customer: 3, Time: g.Origin().Add(time.Hour), Items: []uint32{1}},
	}, nil); code != http.StatusOK {
		t.Fatalf("POST: status %d", code)
	}
	getJSON(t, ts.URL, "/v1/customers/abc/stability", nil) // one 400 for the error counter

	var m MetricsResponse
	if code := getJSON(t, ts.URL, "/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.QueueCapacity != 64 {
		t.Errorf("queue_capacity = %d, want default 64", m.QueueCapacity)
	}
	byName := map[string]EndpointMetrics{}
	var names []string
	for _, e := range m.Endpoints {
		byName[e.Endpoint] = e
		names = append(names, e.Endpoint)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("endpoints not sorted: %v", names)
	}
	if byName["healthz"].Count != 1 || byName["ingest"].Count != 1 {
		t.Errorf("endpoint counts: healthz=%d ingest=%d, want 1 and 1",
			byName["healthz"].Count, byName["ingest"].Count)
	}
	if byName["stability"].Errors != 1 {
		t.Errorf("stability errors = %d, want 1 (the bad-id request)", byName["stability"].Errors)
	}

	// Flip to closing without tearing down the ingestor: health degrades and
	// ingestion refuses.
	close(s.closing)
	if code := getJSON(t, ts.URL, "/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "closing" {
		t.Errorf("closing healthz: status %d body %+v", code, h)
	}
	if code := getJSON(t, ts.URL, "/readyz", &h); code != http.StatusServiceUnavailable || h.Status != "closing" {
		t.Errorf("closing readyz: status %d body %+v", code, h)
	}
	if code := postReceipts(t, ts.URL, overflowReceipts(t, 1), nil); code != http.StatusServiceUnavailable {
		t.Errorf("closing ingest: status %d, want 503", code)
	}
	s.closing = make(chan struct{}) // restore so Cleanup's Close is clean
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestServerConfigErrors pins constructor validation.
func TestServerConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a zero config")
	}
	cfg := Config{Monitor: testMonitorConfig(t), Policy: stream.OverflowPolicy(9)}
	if _, err := New(cfg); err == nil {
		t.Error("New accepted an unknown policy")
	}
}

// TestEncodeAlertsWriterError propagates sink failures.
func TestEncodeAlertsWriterError(t *testing.T) {
	alerts := []stream.SeqAlert{{Seq: 1}}
	if err := EncodeAlerts(failWriter{}, alerts); err == nil {
		t.Error("EncodeAlerts swallowed the writer error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }
