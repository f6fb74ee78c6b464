package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/stream"
)

// postBatch POSTs an NDJSON stability batch and returns the status code and
// raw response body.
func postBatch(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/stability:batch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// getRaw GETs a path and returns the status code and raw response body.
func getRaw(t *testing.T, url, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestServerStabilityBatchDifferential is the batch half of the serving
// determinism contract: at every shard count, the POST /v1/stability:batch
// response must be byte-identical to the concatenation of the N single
// GET /v1/customers/{id}/stability response bodies for the same ids in the
// same order — scored and unknown customers alike (the single 404 body is
// a batch line too). One shard-fanned lookup, N lock round trips: same
// bytes.
func TestServerStabilityBatchDifferential(t *testing.T) {
	feed := testFeed(t, 23, 30, 700)
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, ts := testServer(t, func(c *Config) { c.Shards = shards })
			if code := postReceipts(t, ts.URL, feed, nil); code != http.StatusOK {
				t.Fatalf("POST receipts: status %d", code)
			}
			// Every receipt must be ingested before the batch query: the
			// single GETs below run later, so a still-draining feed would
			// let them see later windows than the batch did.
			waitServe(t, "feed drained", func() bool {
				return s.Ingestor().Metrics().ReceiptsIngested == uint64(len(feed))
			})

			// Every customer in the feed — scored or not — plus ids the
			// daemon has never seen, interleaved so shard fan-in and
			// miss lines are both exercised mid-batch.
			var ids []uint64
			seen := map[uint64]bool{}
			for _, rc := range feed {
				if !seen[rc.Customer] {
					seen[rc.Customer] = true
					ids = append(ids, rc.Customer, rc.Customer+1) // +1 is almost surely unknown
				}
			}
			var req strings.Builder
			for _, id := range ids {
				fmt.Fprintf(&req, "{\"customer\":%d}\n", id)
			}
			code, batchBody := postBatch(t, ts.URL, req.String())
			if code != http.StatusOK {
				t.Fatalf("batch: status %d: %s", code, batchBody)
			}

			var singles bytes.Buffer
			okCount := 0
			for _, id := range ids {
				scode, body := getRaw(t, ts.URL, fmt.Sprintf("/v1/customers/%d/stability", id))
				if scode == http.StatusOK {
					okCount++
				} else if scode != http.StatusNotFound {
					t.Fatalf("single query %d: status %d", id, scode)
				}
				singles.Write(body)
			}
			if okCount == 0 {
				t.Fatal("no customer scored; differential is vacuous")
			}
			if !bytes.Equal(batchBody, singles.Bytes()) {
				t.Fatalf("batch response differs from %d concatenated single responses\nbatch:\n%s\nsingles:\n%s",
					len(ids), batchBody, singles.Bytes())
			}
		})
	}
}

// TestServerStabilityBatchValidation covers the edges: empty batch, the
// MaxBatch cap (413 before any lookup), and malformed NDJSON (400, never a
// torn 200).
func TestServerStabilityBatchValidation(t *testing.T) {
	_, ts := testServer(t, func(c *Config) { c.MaxBatch = 3 })

	if code, body := postBatch(t, ts.URL, ""); code != http.StatusOK || len(body) != 0 {
		t.Errorf("empty batch: status %d body %q, want 200 with empty body", code, body)
	}
	over := strings.Repeat("{\"customer\":1}\n", 4)
	if code, _ := postBatch(t, ts.URL, over); code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-cap batch: status %d, want 413", code)
	}
	if code, _ := postBatch(t, ts.URL, "{\"customer\":1}\n{nope}\n"); code != http.StatusBadRequest {
		t.Errorf("malformed line: status %d, want 400", code)
	}
	// In-cap unknown customers answer 200 with one not-found line each,
	// mirroring the single endpoint's 404 body.
	code, body := postBatch(t, ts.URL, "{\"customer\":42}\n")
	if code != http.StatusOK {
		t.Fatalf("unknown customer batch: status %d", code)
	}
	want := "{\"error\":\"customer 42 unknown or not yet scored\"}\n"
	if string(body) != want {
		t.Errorf("unknown customer line = %q, want %q", body, want)
	}
}

// TestServerStabilityBatchConcurrent posts distinct batches from several
// goroutines at once, so the pooled scratch is reused across requests in
// flight: an answer that still referenced another request's ids, rows or
// lines would stop matching that batch's sequential answer (or race, under
// -race).
func TestServerStabilityBatchConcurrent(t *testing.T) {
	const workers, rounds = 4, 20
	s, ts := testServer(t, nil)
	feed := testFeed(t, 11, 40, 600)
	if code := postReceipts(t, ts.URL, feed, nil); code != http.StatusOK {
		t.Fatalf("POST receipts: status %d", code)
	}
	waitServe(t, "feed drained", func() bool {
		return s.Ingestor().Metrics().ReceiptsIngested == uint64(len(feed))
	})
	var bodies, wants []string
	for n := 1; n <= 7; n++ {
		var req strings.Builder
		for k, rc := range feed[:n*40] {
			if k%n == 0 {
				fmt.Fprintf(&req, "{\"customer\":%d}\n", rc.Customer+uint64(k%2))
			}
		}
		code, want := postBatch(t, ts.URL, req.String())
		if code != http.StatusOK {
			t.Fatalf("batch: status %d", code)
		}
		bodies, wants = append(bodies, req.String()), append(wants, string(want))
	}
	if all := strings.Join(wants, ""); !strings.Contains(all, `"stability"`) || !strings.Contains(all, `"error"`) {
		t.Fatal("the batches need scored and unknown customers both")
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w + r) % len(bodies)
				resp, err := http.Post(ts.URL+"/v1/stability:batch", "application/x-ndjson", strings.NewReader(bodies[k]))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || string(got) != wants[k] {
					t.Errorf("batch %d: answer %q (error %v), want %q", k, got, err, wants[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzBatchAnswerLine is the differential check of the append-style answer
// encoder: for any customer, stability bits and window, a line appendRow
// writes must be the bytes json.Encoder writes for the same
// StabilityResponse, or ErrorResponse when the customer is not found. A
// row appendRow declines must be one json.Encoder fails on without
// writing a byte, so ending the response there (writeRows) gives the bytes
// it always has. Each row is appended twice, the second time through the
// suffix memo the first one filled.
func FuzzBatchAnswerLine(f *testing.F) {
	for _, v := range []float64{
		0, 1, 0.5, 0.7071067811865476, 1.0 / 3, 2.5e-3,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-10, 1e-100,
		1e21, math.Nextafter(1e21, 0), 1e22, math.MaxFloat64,
		5e-324, math.SmallestNonzeroFloat64 * 12345, 2.2250738585072014e-308,
		math.Copysign(0, -1), -1e-7, -0.25, -1e21,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(uint64(42), math.Float64bits(v), int32(3), true)
	}
	// Windows at the edges of years 0-9999 on the test grid: 47925 ends in
	// year 10000 and -12075 starts in year -1, so json.Encoder fails on both.
	for _, k := range []int32{-1, 0, 47924, 47925, -12074, -12075, math.MaxInt32, math.MinInt32} {
		f.Add(uint64(7), math.Float64bits(0.5), k, true)
	}
	f.Add(uint64(0), uint64(0), int32(0), false)
	f.Add(uint64(math.MaxUint64), math.Float64bits(math.NaN()), int32(math.MaxInt32), false)
	grid := testGrid(f)
	f.Fuzz(func(t *testing.T, customer, bits uint64, k int32, ok bool) {
		row := stream.CustomerStability{Customer: retail.CustomerID(customer), Value: math.Float64frombits(bits), GridIndex: int(k), OK: ok}
		var v any = ErrorResponse{Error: fmt.Sprintf("customer %d unknown or not yet scored", customer)}
		if ok {
			v = stabilityResponse(grid, customer, row.Value, row.GridIndex)
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(v)
		if wantErr != nil && want.Len() != 0 {
			t.Fatalf("json.Encoder failed (%v) after writing %q", wantErr, want.Bytes())
		}
		sc := batchPool.New().(*batchScratch)
		for pass := 0; pass < 2; pass++ {
			got, took := sc.appendRow([]byte("x"), grid, row)
			switch {
			case !took && wantErr == nil:
				t.Fatalf("pass %d: declined a row json.Encoder writes as %q", pass, want.Bytes())
			case !took && string(got) != "x":
				t.Fatalf("pass %d: declined, but appended %q", pass, got[1:])
			case took && wantErr != nil:
				t.Fatalf("pass %d: wrote %q, json.Encoder fails: %v", pass, got[1:], wantErr)
			case took && !bytes.Equal(got[1:], want.Bytes()):
				t.Fatalf("pass %d: line %q, json.Encoder writes %q", pass, got[1:], want.Bytes())
			}
		}
	})
}

// TestBatchWriteRowsStopsAtRefusedRow pins where a response ends when a
// row cannot be encoded: after the lines before it, exactly where a
// json.Encoder writing one row at a time stops.
func TestBatchWriteRowsStopsAtRefusedRow(t *testing.T) {
	grid := testGrid(t)
	for _, bad := range []stream.CustomerStability{
		{Customer: 3, Value: math.NaN(), GridIndex: 3, OK: true},
		{Customer: 3, Value: math.Inf(-1), GridIndex: 3, OK: true},
		{Customer: 3, Value: 0.5, GridIndex: 47925, OK: true}, // ends in year 10000
	} {
		rows := []stream.CustomerStability{
			{Customer: 1, Value: 0.5, GridIndex: 3, OK: true},
			{Customer: 2},
			bad,
			{Customer: 4, Value: 0.25, GridIndex: 3, OK: true},
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		for _, row := range rows {
			var v any = ErrorResponse{Error: fmt.Sprintf("customer %d unknown or not yet scored", row.Customer)}
			if row.OK {
				v = stabilityResponse(grid, uint64(row.Customer), row.Value, row.GridIndex)
			}
			if enc.Encode(v) != nil {
				break
			}
		}
		if n := bytes.Count(want.Bytes(), []byte("\n")); n != 2 {
			t.Fatalf("reference wrote %d lines before the refused row, want 2: %q", n, want.Bytes())
		}
		sc := batchPool.New().(*batchScratch)
		sc.rows = rows
		var got bytes.Buffer
		sc.writeRows(&got, grid)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("row %+v: wrote %q, json.Encoder writes %q", bad, got.Bytes(), want.Bytes())
		}
	}
}

// TestBatchScratchReleaseBoundsBody checks that a body buffer grown past a
// MaxBatch body's size is not kept for the next request.
func TestBatchScratchReleaseBoundsBody(t *testing.T) {
	for _, size := range []int{4 << 10, batchBodyKeep, 8 << 20} {
		sc := batchPool.New().(*batchScratch)
		sc.body.Grow(size)
		grown := sc.body.Cap()
		sc.release()
		if kept := sc.body.Cap(); (grown <= batchBodyKeep) != (kept == grown) || kept > batchBodyKeep {
			t.Errorf("body grown to %d bytes: %d kept, want it kept only up to %d", grown, kept, batchBodyKeep)
		}
	}
}
