package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
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
