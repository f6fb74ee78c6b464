//go:build !race

// The race detector randomly drops sync.Pool items and adds its own
// allocations, so the allocation guard runs only without it.

package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"github.com/gautrais/stability/internal/retail"
)

// TestDecodeReceiptsAllocs pins the one-pass decode's allocation count:
// once the pooled scratch has grown, a request costs its events slice and
// its basket slab, whatever its receipt count.
func TestDecodeReceiptsAllocs(t *testing.T) {
	allocs := func(receipts int) float64 {
		body := canonicalBody(t, receipts, false)
		r := bytes.NewReader(body)
		return testing.AllocsPerRun(100, func() {
			r.Reset(body)
			if _, err := decodeReceipts(r, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(20), allocs(200)
	if large != small || large > 2 {
		t.Fatalf("decode allocs: %v for 20 receipts, %v for 200; want the same constant, at most 2", small, large)
	}
}

// discardResponse is a ResponseWriter that keeps nothing, so the guard
// below counts the handler's allocations and not a recorder's growing
// body.
type discardResponse struct{ header http.Header }

func (d discardResponse) Header() http.Header         { return d.header }
func (d discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d discardResponse) WriteHeader(int)             {}

// TestStabilityBatchAllocs pins the batch handler's allocation count: once
// the pooled scratch has grown, a batch of 200 ids allocates what a batch
// of 16 does. Both batches cycle over the same customers, scored and
// unknown, so they share their windows and each response builds the same
// suffixes.
func TestStabilityBatchAllocs(t *testing.T) {
	s, ts := testServer(t, nil)
	feed := testFeed(t, 5, 12, 300)
	if code := postReceipts(t, ts.URL, feed, nil); code != http.StatusOK {
		t.Fatalf("POST receipts: status %d", code)
	}
	waitServe(t, "feed drained", func() bool {
		return s.Ingestor().Metrics().ReceiptsIngested == uint64(len(feed))
	})
	ids := []uint64{404}
	seen := map[uint64]bool{}
	for _, rc := range feed {
		if _, _, ok := s.Ingestor().Stability(retail.CustomerID(rc.Customer)); ok && !seen[rc.Customer] {
			seen[rc.Customer] = true
			ids = append(ids, rc.Customer)
		}
	}
	if len(ids) < 3 {
		t.Fatalf("only %d customers scored", len(ids)-1)
	}
	allocs := func(n int) float64 {
		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		for i := 0; i < n; i++ {
			if err := enc.Encode(BatchStabilityQuery{Customer: ids[i%len(ids)]}); err != nil {
				t.Fatal(err)
			}
		}
		w := discardResponse{header: http.Header{}}
		r := bytes.NewReader(body.Bytes())
		req, err := http.NewRequest(http.MethodPost, "/v1/stability:batch", nil)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			r.Reset(body.Bytes())
			req.Body = io.NopCloser(r)
			if code := s.handleStabilityBatch(w, req); code != http.StatusOK {
				t.Fatalf("batch: status %d", code)
			}
		})
	}
	small, large := allocs(16), allocs(200)
	if large != small {
		t.Fatalf("batch handler allocs: %v for 16 ids, %v for 200; want the same", small, large)
	}
}
