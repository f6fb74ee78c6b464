package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gautrais/stability/internal/stream"
)

// canonicalBody is json.Marshal of an n-receipt IngestRequest: the shape
// every client in this repository sends. Receipts carry unsorted and
// repeated items, empty baskets, the extreme ids, and fractional seconds;
// with offsets, timestamps also carry non-UTC zone offsets.
func canonicalBody(tb testing.TB, n int, offsets bool) []byte {
	tb.Helper()
	zones := []*time.Location{time.UTC}
	if offsets {
		zones = append(zones, time.FixedZone("", 2*3600), time.FixedZone("", -(5*3600+30*60)))
	}
	req := IngestRequest{Receipts: make([]ReceiptIn, n)}
	for k := range req.Receipts {
		items := make([]uint32, k%7)
		for j := range items {
			items[j] = uint32((k*31+j*17+n)%11 + 1) // n: bodies differ item by item
		}
		customer := uint64(k)*7919 + 1
		switch k {
		case 1:
			customer = 0
		case 2:
			customer = math.MaxUint64
			items = append(items, math.MaxUint32)
		}
		req.Receipts[k] = ReceiptIn{
			Customer: customer,
			Time:     time.Date(2012, time.May, 1+k%28, 9, 0, k%60, k*1000, zones[k%len(zones)]),
			Items:    items,
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// diffEvents describes the first difference between got and want in
// customer, time instant, zone or basket, or returns "" when they hold the
// same receipts.
func diffEvents(got, want []stream.ReceiptEvent) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d events, want %d", len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		gName, gOff := g.Time.Zone()
		wName, wOff := w.Time.Zone()
		if g.Customer != w.Customer || !g.Time.Equal(w.Time) || gName != wName || gOff != wOff || !slices.Equal(g.Items, w.Items) {
			return fmt.Sprintf("event %d = {%d %v %v}, want {%d %v %v}", k, g.Customer, g.Time, g.Items, w.Customer, w.Time, w.Items)
		}
	}
	return ""
}

// sameEvents fails unless got and want hold the same receipts.
func sameEvents(t *testing.T, got, want []stream.ReceiptEvent) {
	t.Helper()
	if d := diffEvents(got, want); d != "" {
		t.Fatal(d)
	}
}

// reflectiveEvents is the reference decode: decodeIngest plus toEvents.
func reflectiveEvents(r io.Reader, maxBatch int) ([]stream.ReceiptEvent, error) {
	req, err := decodeIngest(r, maxBatch)
	if err != nil {
		return nil, err
	}
	return toEvents(req.Receipts), nil
}

// TestDecodeReceiptsFastPath pins that canonical bodies take the one-pass
// parse, so a silent fallback to the reflective decoder cannot hide a
// regression, and that its events match the reference with every basket
// normalized and capacity-clipped inside the request's slab.
func TestDecodeReceiptsFastPath(t *testing.T) {
	for _, n := range []int{0, 1, 3, 200} {
		for _, offsets := range []bool{false, true} {
			body := canonicalBody(t, n, offsets)
			got, ok := new(ingestScratch).parse(body, n)
			if !ok {
				t.Fatalf("n=%d offsets=%v: canonical body fell back:\n%s", n, offsets, body)
			}
			want, err := reflectiveEvents(bytes.NewReader(body), n)
			if err != nil {
				t.Fatal(err)
			}
			sameEvents(t, got, want)
			for k, ev := range got {
				if !ev.Items.IsNormalized() || cap(ev.Items) != len(ev.Items) {
					t.Fatalf("event %d basket %v (cap %d) not normalized and clipped", k, ev.Items, cap(ev.Items))
				}
			}
		}
	}
	// Whitespace between tokens is canonical too (a pretty-printing client).
	pretty, err := json.MarshalIndent(IngestRequest{Receipts: []ReceiptIn{{Customer: 4, Time: time.Unix(1336035600, 0).UTC(), Items: []uint32{2, 1}}}}, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := new(ingestScratch).parse(append(pretty, " \r\n"...), 0); !ok {
		t.Fatalf("indented body fell back:\n%s", pretty)
	}
}

// TestDecodeReceiptsConcurrent decodes distinct bodies from several
// goroutines at once while every result is kept, so pooled scratch is
// reused across requests: an event that still referenced it would be
// overwritten by a later request (or race, under -race) and stop matching
// the reference.
func TestDecodeReceiptsConcurrent(t *testing.T) {
	const workers, rounds = 4, 40
	var bodies [][]byte
	var wants [][]stream.ReceiptEvent
	for n := 5; n <= 40; n += 7 {
		body := canonicalBody(t, n, n%2 == 0)
		want, err := reflectiveEvents(bytes.NewReader(body), 0)
		if err != nil {
			t.Fatal(err)
		}
		bodies, wants = append(bodies, body), append(wants, want)
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held := make([][]stream.ReceiptEvent, rounds)
			for r := range held {
				got, err := decodeReceipts(bytes.NewReader(bodies[(w+r)%len(bodies)]), 0)
				if err != nil {
					errs <- err.Error()
					return
				}
				held[r] = got
			}
			for r, got := range held {
				if d := diffEvents(got, wants[(w+r)%len(bodies)]); d != "" {
					errs <- d
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for d := range errs {
		t.Error(d)
	}
}

// fuzzMaxBatch is small so the fuzzers reach the 413 path.
const fuzzMaxBatch = 4

// FuzzDecodeIngest is the differential check of the one-pass decode:
// on every body, and on every body cut short by a read error (limit > 0
// puts it behind a MaxBytesReader of that many bytes), decodeReceipts must
// give the error text, or the events, decodeIngest plus toEvents give.
func FuzzDecodeIngest(f *testing.F) {
	valid := `{"customer":1,"time":"2012-05-03T09:00:00Z","items":[3,1,3]}`
	seeds := []string{
		string(canonicalBody(f, 3, true)),
		string(canonicalBody(f, fuzzMaxBatch+1, false)),
		`{"receipts":[` + valid + `]}`,
		`{}`, `{"receipts":[]}`, ` {"receipts" : [ {} ] } `, `{"receipts":[{"items":[]}]}`,
		// Escaped, case-folded and Unicode-folded keys.
		`{"\u0072eceipts":[` + valid + `]}`,
		`{"receipts":[{"\u0063ustomer":1,"time":"2012-05-03T09:00:00Z"}]}`,
		`{"Receipts":[{"Customer":1,"TIME":"2012-05-03T09:00:00Z","Items":[1]}]}`,
		`{"receipts":[{"cuſtomer":7,"ıtems":[1]}]}`,
		`{"receipts":[{"time":"2012-05-03T09:00:00\u005a"}]}`,
		// Unknown and duplicate keys, nested unknown values.
		`{"receipts":[` + valid + `],"extra":1}`,
		`{"receipts":[{"customer":1,"spend":2.5,"meta":{"a":[1,{"b":null}],"c":"\""}}]}`,
		`{"receipts":[{"customer":1,"customer":2}]}`,
		`{"receipts":[{"customer":1,"items":[1]}],"receipts":[{"items":[2]}]}`,
		`{"receipts":[{"items":[1,2],"items":[3]}]}`,
		// null at each level.
		`null`, `{"receipts":null}`, `{"receipts":[null]}`,
		`{"receipts":[{"customer":null,"time":null,"items":null}]}`,
		`{"receipts":[{"items":[null]}]}`,
		// Numbers the fast pass leaves alone.
		`{"receipts":[{"customer":01}]}`, `{"receipts":[{"customer":-1}]}`,
		`{"receipts":[{"customer":1.0}]}`, `{"receipts":[{"customer":1e3}]}`,
		`{"receipts":[{"customer":18446744073709551616}]}`,
		`{"receipts":[{"items":[4294967296]}]}`, `{"receipts":[{"items":[4294967295,0]}]}`,
		`{"receipts":[{"items":["1"]}]}`, `{"receipts":[{"customer":"1"}]}`,
		// Timestamps: offsets, fractions, malformed, non-strings.
		`{"receipts":[{"time":"2012-05-03T09:00:00.123456789+05:30"}]}`,
		`{"receipts":[{"time":"2012-05-03T09:00:00-00:00"}]}`,
		`{"receipts":[{"time":"2012-13-03T09:00:00Z"}]}`,
		`{"receipts":[{"time":"2012-05-03T9:00:00Z"}]}`,
		`{"receipts":[{"time":20120503}]}`,
		// Control bytes in strings, trailing bytes, truncation, other tops.
		"{\"receipts\":[{\"time\":\"2012-05-03T09:00:00\x01Z\"}]}",
		"{\"rece\nipts\":[]}",
		`{"receipts":[]} x`, `{"receipts":[]}{"receipts":[]}`, `{"receipts":[]}]`,
		`{"receipts":[` + valid, `{"receipts":[` + valid + `,]}`, `{"receipts":[` + valid + ` ` + valid + `]}`,
		``, ` `, `[]`, `"receipts"`, `{"receipts":{}}`, "\xef\xbb\xbf{}",
	}
	for _, s := range seeds {
		f.Add([]byte(s), uint16(0))
	}
	f.Add([]byte(`{"receipts":[`+valid+`]}`), uint16(20))
	f.Add([]byte(`{"receipts":[`+valid+`]}   trailing`), uint16(len(valid)+16))
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		open := func() io.Reader {
			var r io.Reader = bytes.NewReader(body)
			if limit > 0 {
				r = http.MaxBytesReader(nil, io.NopCloser(r), int64(limit))
			}
			return r
		}
		got, gotErr := decodeReceipts(open(), fuzzMaxBatch)
		want, wantErr := reflectiveEvents(open(), fuzzMaxBatch)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, want %v", gotErr, wantErr)
		}
		if wantErr == nil {
			sameEvents(t, got, want)
		}
	})
}

// queryBody is what json.Encoder writes for n batch queries: the shape
// every client in this repository sends, with the extreme ids.
func queryBody(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for k := 0; k < n; k++ {
		id := uint64(k)*7919 + 1
		switch k {
		case 1:
			id = 0
		case 2:
			id = math.MaxUint64
		}
		if err := enc.Encode(BatchStabilityQuery{Customer: id}); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestDecodeQueriesFastPath pins that json.Encoder query streams take the
// one-pass parse, so a silent fallback to decodeBatchQueries cannot hide a
// regression, and that the parse gives the reference's ids.
func TestDecodeQueriesFastPath(t *testing.T) {
	for _, n := range []int{0, 1, 3, 200} {
		body := queryBody(t, n)
		got, ok := new(batchScratch).parse(body, n)
		if !ok {
			t.Fatalf("n=%d: encoder body fell back:\n%s", n, body)
		}
		want, err := decodeBatchQueries(bytes.NewReader(body), n)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("n=%d: parsed %v, reference %v (error %v)", n, got, want, err)
		}
	}
	// Other whitespace and no separator at all are JSON streams too.
	if _, ok := new(batchScratch).parse([]byte(" {\"customer\" : 1}\r\n\t{\"customer\":2}{\"customer\":3} "), 0); !ok {
		t.Fatal("whitespace-separated body fell back")
	}
}

// FuzzDecodeBatchQueries is the differential check of the one-pass batch
// decode: on every body, and on every body cut short by a read error
// (limit > 0 puts it behind a MaxBytesReader of that many bytes),
// decodeQueries must give the error text, or the ids, decodeBatchQueries
// gives. It also checks the reference: it never panics, input over the
// cap fails with ErrBatchTooLarge, and decoded ids survive a re-encode and
// decode unchanged.
func FuzzDecodeBatchQueries(f *testing.F) {
	for _, s := range []string{
		"", "{\"customer\":1}\n", "{\"customer\":1}\n{\"customer\":2}",
		" {\"customer\":18446744073709551615} \n\n{\"customer\":0}",
		strings.Repeat("{\"customer\":7}\n", fuzzMaxBatch+1),
		strings.Repeat("{\"customer\":7}", fuzzMaxBatch+1) + "{nope}",
		"{\"customer\":-1}", "{\"customer\":1.5}", "{nope}", "null\n{}", "[]",
		"{\"Customer\":3,\"x\":[null,{\"y\":\"\\u00e9\"}]}", "{\"customer\":1}{",
		// json.Encoder bodies at and over the cap.
		string(queryBody(f, fuzzMaxBatch)), string(queryBody(f, fuzzMaxBatch+1)),
		// Shapes the fast pass leaves alone: other, duplicate, escaped and
		// case-folded keys, null, numbers it does not take.
		"{}", "{\"customer\":1,\"customer\":2}", "{\"customer\":1,\"x\":2}",
		"{\"\\u0063ustomer\":1}", "{\"CUSTOMER\":1}", "{\"cuſtomer\":1}",
		"{\"customer\":null}", "null", "{\"customer\":01}", "{\"customer\":1e3}",
		"{\"customer\":18446744073709551616}", "{\"customer\":\"1\"}",
		"{\"customer\":1}x", "{\"customer\":1} ]", "\xef\xbb\xbf{\"customer\":1}",
	} {
		f.Add([]byte(s), uint16(0))
	}
	f.Add(queryBody(f, 3), uint16(20))
	f.Add(queryBody(f, fuzzMaxBatch+1), uint16(60))
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		open := func() io.Reader {
			var r io.Reader = bytes.NewReader(body)
			if limit > 0 {
				r = http.MaxBytesReader(nil, io.NopCloser(r), int64(limit))
			}
			return r
		}
		got, gotErr := new(batchScratch).decodeQueries(open(), fuzzMaxBatch)
		want, wantErr := decodeBatchQueries(open(), fuzzMaxBatch)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, want %v", gotErr, wantErr)
		}
		if wantErr == nil && !slices.Equal(got, want) {
			t.Fatalf("ids %v, want %v", got, want)
		}

		ids, err := decodeBatchQueries(bytes.NewReader(body), fuzzMaxBatch)
		if all, allErr := decodeBatchQueries(bytes.NewReader(body), 0); allErr == nil && len(all) > fuzzMaxBatch && !errors.Is(err, ErrBatchTooLarge) {
			t.Fatalf("%d queries over a cap of %d: error %v, want ErrBatchTooLarge", len(all), fuzzMaxBatch, err)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		enc := json.NewEncoder(&again)
		for _, id := range ids {
			if err := enc.Encode(BatchStabilityQuery{Customer: uint64(id)}); err != nil {
				t.Fatal(err)
			}
		}
		round, err := decodeBatchQueries(&again, fuzzMaxBatch)
		if err != nil || !slices.Equal(round, ids) {
			t.Fatalf("re-decoded %v (error %v), want %v", round, err, ids)
		}
	})
}
