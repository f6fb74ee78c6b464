package serve

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"sync"

	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/stream"
	"github.com/gautrais/stability/internal/window"
)

// batchScratch is the working memory of one POST /v1/stability:batch,
// recycled through batchPool. Its contents do not outlive the request:
// the ids and rows are read only while the response is written, and the
// suffix memo is cleared at the start of every response.
type batchScratch struct {
	body     bytes.Buffer               // the request body
	ids      []retail.CustomerID        // the decoded queries
	rows     []stream.CustomerStability // their answers, in request order
	out      []byte                     // answer lines not yet written
	memo     map[int][]byte             // grid index → its answer-line suffix, in suffixes
	suffixes []byte                     // every memoized suffix, back to back
}

var batchPool = sync.Pool{New: func() any { return &batchScratch{memo: map[int][]byte{}} }}

// batchBodyKeep is the largest body buffer a batchScratch takes back into
// batchPool. A MaxBatch body of 10000 encoder lines is at most 340 KB; a
// buffer grown past this by an over-cap or padded body, which is read up
// to MaxBodyBytes, is dropped instead of staying pooled.
const batchBodyKeep = 1 << 20

// release returns sc to batchPool, without a body buffer larger than
// batchBodyKeep.
func (sc *batchScratch) release() {
	if sc.body.Cap() > batchBodyKeep {
		sc.body = bytes.Buffer{}
	}
	batchPool.Put(sc)
}

// batchFlushBytes is how many answer bytes a response collects before
// handing them to the ResponseWriter, so the pooled buffer stays near this
// size whatever the batch size.
const batchFlushBytes = 32 << 10

// decodeQueries reads a POST /v1/stability:batch body and returns its
// customer ids. Bodies in the shape json.Encoder gives a stream of
// BatchStabilityQuery values take a one-pass parse (parse); every other
// body, and a body whose read failed, goes as the same bytes followed by
// the same read error to decodeBatchQueries, whose answer it is
// (FuzzDecodeBatchQueries checks it).
func (sc *batchScratch) decodeQueries(body io.Reader, maxBatch int) ([]retail.CustomerID, error) {
	return decodeBody(&sc.body, body,
		func(b []byte) ([]retail.CustomerID, bool) { return sc.parse(b, maxBatch) },
		func(r io.Reader) ([]retail.CustomerID, error) { return decodeBatchQueries(r, maxBatch) })
}

// parse is the one-pass decode of a batch body. It takes exactly this
// grammar (ws is JSON whitespace):
//
//	body = ws *( "{" ws `"customer"` ws ":" ws uint64 ws "}" ws )
//
// with numbers as decimal digits without a sign, fraction, exponent or
// leading zero, and at most maxBatch objects when maxBatch > 0. It returns
// false for any other body. Every body it takes is one decodeBatchQueries
// decodes to the same ids without error.
func (sc *batchScratch) parse(body []byte, maxBatch int) ([]retail.CustomerID, bool) {
	sc.ids = sc.ids[:0]
	c := cursor{b: body}
	for c.ws(); c.i < len(c.b); c.ws() {
		if maxBatch > 0 && len(sc.ids) == maxBatch {
			return nil, false
		}
		if !c.eat('{') {
			return nil, false
		}
		name, ok := c.key()
		if !ok || string(name) != "customer" {
			return nil, false
		}
		id, ok := c.number(math.MaxUint64)
		if !ok || !c.eat('}') {
			return nil, false
		}
		sc.ids = append(sc.ids, retail.CustomerID(id))
	}
	return sc.ids, true
}

// writeRows writes the answer line of every row of sc.rows, in order, and
// stops at the first write error or at the first row appendRow cannot
// take. json.Encoder refuses exactly those rows and writes nothing for
// them (FuzzBatchAnswerLine pins both), so the response ends where the
// reflective encoder ended it.
func (sc *batchScratch) writeRows(w io.Writer, grid window.Grid) {
	clear(sc.memo)
	sc.suffixes = sc.suffixes[:0]
	out := sc.out[:0]
	defer func() { sc.out = out[:0] }()
	flush := func() bool {
		if len(out) == 0 {
			return true
		}
		_, err := w.Write(out)
		out = out[:0]
		return err == nil
	}
	for _, row := range sc.rows {
		line, ok := sc.appendRow(out, grid, row)
		if !ok {
			flush()
			return
		}
		out = line
		if len(out) >= batchFlushBytes && !flush() {
			return
		}
	}
	flush()
}

// appendRow appends the answer line json.Encoder.Encode gives for row: the
// not-found ErrorResponse when the customer is unknown, its
// StabilityResponse otherwise. It returns false, with dst unchanged, for a
// scored row it cannot encode: a non-finite stability (which encoding/json
// refuses), or a window whose bounds time.Time.MarshalJSON refuses.
func (sc *batchScratch) appendRow(dst []byte, grid window.Grid, row stream.CustomerStability) ([]byte, bool) {
	if !row.OK {
		dst = append(dst, `{"error":"customer `...)
		dst = strconv.AppendUint(dst, uint64(row.Customer), 10)
		return append(dst, " unknown or not yet scored\"}\n"...), true
	}
	if math.IsNaN(row.Value) || math.IsInf(row.Value, 0) {
		return dst, false
	}
	suffix, ok := sc.memo[row.GridIndex]
	if !ok {
		start := len(sc.suffixes)
		if sc.suffixes, ok = appendSuffix(sc.suffixes, grid, row.GridIndex); !ok {
			return dst, false
		}
		suffix = sc.suffixes[start:]
		sc.memo[row.GridIndex] = suffix
	}
	dst = append(dst, `{"customer":`...)
	dst = strconv.AppendUint(dst, uint64(row.Customer), 10)
	dst = append(dst, `,"stability":`...)
	dst = appendFloat(dst, row.Value)
	return append(dst, suffix...), true
}

// appendSuffix appends the tail every scored answer line in window k
// shares: `,"window":K,"start":S,"end":E}` and a newline, with S and E the
// time.Time.MarshalJSON bytes of the window's bounds. It returns false,
// with dst unchanged, when either bound fails to marshal.
func appendSuffix(dst []byte, grid window.Grid, k int) ([]byte, bool) {
	start, end := grid.Bounds(k)
	s, err := start.MarshalJSON()
	if err != nil {
		return dst, false
	}
	e, err := end.MarshalJSON()
	if err != nil {
		return dst, false
	}
	dst = append(dst, `,"window":`...)
	dst = strconv.AppendInt(dst, int64(k), 10)
	dst = append(append(dst, `,"start":`...), s...)
	dst = append(append(dst, `,"end":`...), e...)
	return append(dst, "}\n"...), true
}

// appendFloat appends a finite f as encoding/json encodes a float64: the
// shortest representation that round-trips, in 'f' format unless |f| is
// below 1e-6 or at least 1e21, where it is 'e' with an exponent of at
// least one digit (e-7, not e-07).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
