package serve

import (
	"bytes"
	"io"
	"math"
	"sync"
	"time"

	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/stream"
)

// ingestScratch is the working memory of one POST /v1/receipts decode,
// recycled through scratchPool. No returned event may reference it: each
// request's baskets are copied into a slab of their own before return.
type ingestScratch struct {
	body   bytes.Buffer          // the request body
	events []stream.ReceiptEvent // decoded receipts, baskets not yet set
	items  []retail.ItemID       // every receipt's normalized basket, back to back
	ends   []int                 // ends[k] is where receipt k's basket ends in items
}

var scratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// decodeReceipts reads a POST /v1/receipts body and returns its receipts
// as stream events with normalized baskets. Bodies in the canonical shape
// take a one-pass parse (parse); every other body, and a body whose read
// failed, goes as the same bytes followed by the same read error to
// decodeIngest and toEvents. The result, error text included, is what
// those two return for the body (FuzzDecodeIngest checks it).
func decodeReceipts(body io.Reader, maxBatch int) ([]stream.ReceiptEvent, error) {
	sc := scratchPool.Get().(*ingestScratch)
	defer scratchPool.Put(sc)
	return decodeBody(&sc.body, body,
		func(b []byte) ([]stream.ReceiptEvent, bool) { return sc.parse(b, maxBatch) },
		func(r io.Reader) ([]stream.ReceiptEvent, error) {
			req, err := decodeIngest(r, maxBatch)
			if err != nil {
				return nil, err
			}
			return toEvents(req.Receipts), nil
		})
}

// decodeBody reads body into buf and returns what parse makes of the
// bytes. When the read failed, or parse declines the bytes, reference
// decodes instead: it reads the same bytes followed by the same read
// error, so its answer, error text included, is the one it would give
// reading body itself.
func decodeBody[T any](buf *bytes.Buffer, body io.Reader, parse func([]byte) (T, bool), reference func(io.Reader) (T, error)) (T, error) {
	buf.Reset()
	_, readErr := buf.ReadFrom(body)
	if readErr == nil {
		if v, ok := parse(buf.Bytes()); ok {
			return v, nil
		}
	}
	var replay io.Reader = bytes.NewReader(buf.Bytes())
	if readErr != nil {
		replay = io.MultiReader(replay, errReader{readErr})
	}
	return reference(replay)
}

// errReader replays a read error after the bytes read before it.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// parse is the one-pass decode of body. It takes exactly this grammar
// (ws is JSON whitespace):
//
//	body    = ws "{" ws [ `"receipts"` ws ":" ws list ws ] "}" ws
//	list    = "[" ws [ receipt ws *( "," ws receipt ws ) ] "]"
//	receipt = "{" ws [ field ws *( "," ws field ws ) ] "}"
//	field   = `"customer"` ws ":" ws uint64
//	        / `"time"` ws ":" ws RFC 3339 string, as time.Time.UnmarshalJSON takes it
//	        / `"items"` ws ":" ws "[" ws [ uint32 ws *( "," ws uint32 ws ) ] "]"
//
// with each key at most once per object, numbers as decimal digits without
// a sign, fraction, exponent or leading zero, and strings without escapes
// or control bytes. It returns false for any other body and for one over
// maxBatch receipts. Every body it takes is valid JSON that decodeIngest
// decodes to the same receipts, so parse only ever answers for inputs
// whose answer it cannot get wrong.
func (sc *ingestScratch) parse(body []byte, maxBatch int) ([]stream.ReceiptEvent, bool) {
	sc.events, sc.items, sc.ends = sc.events[:0], sc.items[:0], sc.ends[:0]
	c := cursor{b: body}
	if !c.eat('{') {
		return nil, false
	}
	if !c.eat('}') {
		if name, ok := c.key(); !ok || string(name) != "receipts" || !sc.list(&c, maxBatch) || !c.eat('}') {
			return nil, false
		}
	}
	c.ws()
	if c.i != len(c.b) {
		return nil, false
	}
	slab := make(retail.Basket, len(sc.items))
	copy(slab, sc.items)
	events := make([]stream.ReceiptEvent, len(sc.events))
	start := 0
	for k, end := range sc.ends {
		events[k] = sc.events[k]
		events[k].Items = slab[start:end:end]
		start = end
	}
	return events, true
}

// list parses the receipts array.
func (sc *ingestScratch) list(c *cursor, maxBatch int) bool {
	if !c.eat('[') {
		return false
	}
	if c.eat(']') {
		return true
	}
	for {
		if maxBatch > 0 && len(sc.events) == maxBatch {
			return false
		}
		if !sc.receipt(c) {
			return false
		}
		if c.eat(']') {
			return true
		}
		if !c.eat(',') {
			return false
		}
	}
}

// receipt parses one receipt object, normalizing its basket in place at
// the tail of sc.items.
func (sc *ingestScratch) receipt(c *cursor) bool {
	if !c.eat('{') {
		return false
	}
	var ev stream.ReceiptEvent
	start := len(sc.items)
	if !c.eat('}') {
		seen := 0 // bit set of the keys already read
		for {
			name, ok := c.key()
			if !ok {
				return false
			}
			field := 0
			switch string(name) {
			case "customer":
				field = 1
				var v uint64
				v, ok = c.number(math.MaxUint64)
				ev.Customer = retail.CustomerID(v)
			case "time":
				field = 2
				ok = c.timestamp(&ev.Time)
			case "items":
				field = 4
				ok = sc.basket(c)
			}
			if field == 0 || !ok || seen&field != 0 {
				return false
			}
			seen |= field
			if c.eat('}') {
				break
			}
			if !c.eat(',') {
				return false
			}
		}
	}
	sc.items = sc.items[:start+len(retail.Normalize(sc.items[start:]))]
	sc.events = append(sc.events, ev)
	sc.ends = append(sc.ends, len(sc.items))
	return true
}

// basket parses an items array onto the tail of sc.items.
func (sc *ingestScratch) basket(c *cursor) bool {
	if !c.eat('[') {
		return false
	}
	if c.eat(']') {
		return true
	}
	for {
		v, ok := c.number(math.MaxUint32)
		if !ok {
			return false
		}
		sc.items = append(sc.items, retail.ItemID(v))
		if c.eat(']') {
			return true
		}
		if !c.eat(',') {
			return false
		}
	}
}

// cursor walks a JSON body for parse.
type cursor struct {
	b []byte
	i int
}

// ws skips JSON whitespace. Every whitespace byte is at most ' ', so one
// comparison settles the common case of a token byte.
func (c *cursor) ws() {
	for c.i < len(c.b) && c.b[c.i] <= ' ' {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes ch if it comes next.
func (c *cursor) eat(ch byte) bool {
	c.ws()
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// str consumes a string without escapes or control bytes and returns its
// contents.
func (c *cursor) str() ([]byte, bool) {
	c.ws()
	if c.i >= len(c.b) || c.b[c.i] != '"' {
		return nil, false
	}
	for j := c.i + 1; j < len(c.b); j++ {
		switch ch := c.b[j]; {
		case ch == '"':
			s := c.b[c.i+1 : j]
			c.i = j + 1
			return s, true
		case ch == '\\' || ch < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// key consumes an object key and the colon after it, and returns the key.
func (c *cursor) key() ([]byte, bool) {
	name, ok := c.str()
	return name, ok && c.eat(':')
}

// number consumes a decimal integer no larger than max.
func (c *cursor) number(max uint64) (uint64, bool) {
	c.ws()
	start := c.i
	cutoff, cutlim := max/10, max%10
	var v uint64
	for ; c.i < len(c.b); c.i++ {
		d := uint64(c.b[c.i]) - '0' // wraps past 9 for bytes below '0'
		if d > 9 {
			break
		}
		if v > cutoff || (v == cutoff && d > cutlim) {
			return 0, false
		}
		v = v*10 + d
	}
	if n := c.i - start; n == 0 || (n > 1 && c.b[start] == '0') {
		return 0, false
	}
	return v, true
}

// timestamp consumes a string and parses it with time.Time.UnmarshalJSON,
// the method encoding/json calls with the same quoted bytes.
func (c *cursor) timestamp(t *time.Time) bool {
	c.ws()
	open := c.i
	if _, ok := c.str(); !ok {
		return false
	}
	return t.UnmarshalJSON(c.b[open:c.i]) == nil
}
