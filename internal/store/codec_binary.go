package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"github.com/gautrais/stability/internal/retail"
)

// Binary snapshot format (little-endian, varint-heavy):
//
//	magic "STB1" (4 bytes)
//	uvarint customerCount
//	per customer:
//	  uvarint customerID
//	  uvarint receiptCount
//	  per receipt:
//	    varint  deltaUnixSeconds (delta from previous receipt; first is
//	            delta from the Unix epoch)
//	    uint64  spend bits (IEEE 754)
//	    uvarint itemCount
//	    uvarint item deltas (delta-encoded ascending ItemIDs, first from 0)
//
// Delta encoding exploits chronological receipt order and sorted baskets;
// on the synthetic datasets it is ~4x smaller than CSV.
//
// A snapshot file is one or more such segments concatenated: ReadBinary
// merges them all into one store. That is the streaming append path — an
// extended dataset is persisted by appending a segment holding only the
// new receipts (WriteBinaryDelta) after the existing bytes, which are
// never rewritten.
var binaryMagic = [4]byte{'S', 'T', 'B', '1'}

// Decoder limits: a segment claiming more customers, or a receipt more
// items, is corrupt.
const (
	maxSegmentCustomers = 1 << 34
	maxBasketItems      = 1 << 20
)

// WriteBinary serializes the store snapshot as a single segment.
func (s *Store) WriteBinary(w io.Writer) error {
	return writeBinarySegment(w, s.histories)
}

// WriteBinaryDelta serializes only the receipts s holds beyond prev as one
// STB1 segment (see DeltaSince for the extension contract). Appending the
// segment to a file that decodes to prev yields a file that decodes to s.
func (s *Store) WriteBinaryDelta(w io.Writer, prev *Store) error {
	delta, err := s.DeltaSince(prev)
	if err != nil {
		return err
	}
	return writeBinarySegment(w, delta)
}

// CustomerReceipt is one receipt together with its customer: the unit of
// a flat receipt buffer that WriteReceipts encodes.
type CustomerReceipt struct {
	Customer retail.CustomerID
	Receipt  retail.Receipt
}

// WriteReceipts serializes receipts, given in arrival order, as one STB1
// segment. The bytes are those of NewBuilder, AddReceipt of every receipt
// in order, Build and WriteBinary: receipts are grouped by ascending
// customer and each customer's are stably sorted by time. Every basket
// must be normalized and every spend non-negative, as AddReceipt requires;
// WriteReceipts does not check again.
func WriteReceipts(w io.Writer, receipts []CustomerReceipt) error {
	ids, bounds, at := groupByCustomer(len(receipts),
		func(k int) retail.CustomerID { return receipts[k].Customer },
		func(int) int { return 1 })
	grouped := make([]retail.Receipt, len(receipts))
	for k := range receipts {
		grouped[at[k]] = receipts[k].Receipt
	}
	e := newSegmentEncoder(w, len(ids))
	for g, id := range ids {
		h := retail.History{Customer: id, Receipts: grouped[bounds[g]:bounds[g+1]]}
		h.Sort()
		e.history(h.Customer, h.Receipts)
	}
	return e.finish()
}

// writeBinarySegment encodes one STB1 segment from a customer-ascending
// history slice.
func writeBinarySegment(w io.Writer, histories []retail.History) error {
	e := newSegmentEncoder(w, len(histories))
	for _, h := range histories {
		e.history(h.Customer, h.Receipts)
	}
	return e.finish()
}

// encodeChunk is how many encoded bytes segmentEncoder collects before it
// hands them to the writer, at the end of the receipt that passes it.
const encodeChunk = 32 << 10

// segmentEncoder appends one STB1 segment into a buffer and writes the
// buffer out each time a receipt takes it past encodeChunk bytes, so a
// segment of any size streams through a buffer bounded by encodeChunk
// plus one receipt. The first write error ends the writing; finish
// reports it.
type segmentEncoder struct {
	w   io.Writer
	buf []byte
	err error
}

// newSegmentEncoder starts a segment holding customers histories.
func newSegmentEncoder(w io.Writer, customers int) *segmentEncoder {
	// The headroom takes the receipt that passes encodeChunk, unless its
	// basket is unusually large.
	e := &segmentEncoder{w: w, buf: make([]byte, 0, encodeChunk+4<<10)}
	e.buf = append(e.buf, binaryMagic[:]...)
	e.buf = binary.AppendUvarint(e.buf, uint64(customers))
	return e
}

// history encodes one customer's receipts, which must be in time order.
func (e *segmentEncoder) history(id retail.CustomerID, receipts []retail.Receipt) {
	e.buf = binary.AppendUvarint(e.buf, uint64(id))
	e.buf = binary.AppendUvarint(e.buf, uint64(len(receipts)))
	prev := int64(0)
	for k := range receipts {
		r := &receipts[k]
		ts := r.Time.Unix()
		e.buf = binary.AppendVarint(e.buf, ts-prev)
		prev = ts
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(r.Spend))
		e.buf = binary.AppendUvarint(e.buf, uint64(len(r.Items)))
		prevItem := uint64(0)
		for _, it := range r.Items {
			e.buf = binary.AppendUvarint(e.buf, uint64(it)-prevItem)
			prevItem = uint64(it)
		}
		if len(e.buf) >= encodeChunk {
			e.flush()
		}
	}
}

// flush writes the buffered bytes out, unless a write already failed.
func (e *segmentEncoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// finish writes the rest of the segment and reports the first write error.
func (e *segmentEncoder) finish() error {
	e.flush()
	if e.err != nil {
		return fmt.Errorf("store: write segment: %w", e.err)
	}
	return nil
}

// ReadBinary parses a snapshot produced by WriteBinary, including files
// grown by appending WriteBinaryDelta segments: every concatenated STB1
// segment is merged into one store. At least one segment is required.
func ReadBinary(r io.Reader) (*Store, error) {
	data, err := io.ReadAll(r)
	s, _, err := decodeChain(data, err)
	return s, err
}

// decodeChain decodes every concatenated STB1 segment of data, returning
// the merged store and the segment count (what compaction collapses to
// one). readErr is the error that ended reading data, if any: it stands
// where the input ran out, as it would for a decoder reading the source
// itself.
func decodeChain(data []byte, readErr error) (*Store, int, error) {
	d := decoder{b: data, cut: readErr}
	segments := 0
	for {
		if err := d.segment(segments == 0); err != nil {
			return nil, 0, err
		}
		segments++
		if d.i == len(d.b) && readErr == nil {
			return d.fill(), segments, nil
		}
	}
}

// decoder decodes concatenated STB1 segments straight from a byte slice,
// in two passes. segment validates one whole segment, making every check
// of the format in reading order, and records each customer's receipts in
// it as a run; nothing is allocated per receipt. fill then decodes the
// validated runs into one receipt slab, grouped by customer, and one item
// slab.
//
// The checks are those of a decoder that builds each receipt as it reads
// and adds it to a Builder: a receipt is whole (every item read) before
// its spend and basket order are checked, so input that ends inside a
// receipt is reported as running out (io.EOF or io.ErrUnexpectedEOF),
// never as the spend or order error that receipt would have raised. A
// follower retries the first and gives up on the second, so the order
// decides which.
type decoder struct {
	b    []byte
	i    int   // next byte to read
	cut  error // stands for io.EOF and io.ErrUnexpectedEOF when non-nil
	runs []run // customer records of the validated segments, in order
}

// run is one customer record of a validated segment.
type run struct {
	id       retail.CustomerID
	off      int // offset of the record's first receipt
	receipts int
	items    int
}

// errVarintOverflow is the error binary.ReadUvarint returns for a varint
// longer than 64 bits, taken from binary itself so that it is the same
// value with the same text.
var errVarintOverflow = func() error {
	_, err := binary.ReadUvarint(bytes.NewReader(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)))
	return err
}()

// outOfBytes is the error for input that ends where more bytes are due,
// partial telling whether the field being read had begun, as io.ReadFull
// and binary.ReadUvarint tell it.
func (d *decoder) outOfBytes(partial bool) error {
	switch {
	case d.cut != nil:
		return d.cut
	case partial:
		return io.ErrUnexpectedEOF
	}
	return io.EOF
}

// uvarint reads a uvarint as binary.ReadUvarint reads it, with the same
// split between an overflow and input that runs out. The item loops test
// for a one-byte varint themselves before they call it.
func (d *decoder) uvarint() (uint64, error) {
	var x uint64
	var s uint
	for k := 0; k < binary.MaxVarintLen64; k++ {
		if d.i == len(d.b) {
			return x, d.outOfBytes(k > 0)
		}
		c := d.b[d.i]
		d.i++
		if c < 0x80 {
			if k == binary.MaxVarintLen64-1 && c > 1 {
				return x, errVarintOverflow
			}
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return x, errVarintOverflow
}

// varint reads a zig-zag varint as binary.ReadVarint reads it.
func (d *decoder) varint() (int64, error) {
	ux, err := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// fixed reads n bytes as io.ReadFull would.
func (d *decoder) fixed(n int) ([]byte, error) {
	if len(d.b)-d.i < n {
		partial := d.i < len(d.b)
		d.i = len(d.b)
		return nil, d.outOfBytes(partial)
	}
	d.i += n
	return d.b[d.i-n : d.i], nil
}

// segment validates the segment starting at d.i and appends its runs. On
// error, the runs appended so far are dropped and d.i is unspecified.
// first picks the bad-magic message for a file that is no STB1 snapshot
// at all.
func (d *decoder) segment(first bool) error {
	mark := len(d.runs)
	if err := d.validate(first); err != nil {
		d.runs = d.runs[:mark]
		return err
	}
	return nil
}

// validate is segment's check of every field, in reading order.
func (d *decoder) validate(first bool) error {
	magic, err := d.fixed(len(binaryMagic))
	if err != nil {
		return fmt.Errorf("store: read magic: %w", err)
	}
	if [4]byte(magic) != binaryMagic {
		if first {
			return fmt.Errorf("store: bad magic %q (not a STB1 snapshot)", magic)
		}
		return fmt.Errorf("store: bad magic %q in appended segment", magic)
	}
	customers, err := d.uvarint()
	if err != nil {
		return fmt.Errorf("store: read customer count: %w", err)
	}
	if customers > maxSegmentCustomers {
		return fmt.Errorf("store: implausible customer count %d", customers)
	}
	for c := uint64(0); c < customers; c++ {
		cust, err := d.uvarint()
		if err != nil {
			return fmt.Errorf("store: read customer id: %w", err)
		}
		receipts, err := d.uvarint()
		if err != nil {
			return fmt.Errorf("store: read receipt count: %w", err)
		}
		id := retail.CustomerID(cust)
		rn := run{id: id, off: d.i}
		for ; uint64(rn.receipts) < receipts; rn.receipts++ {
			if _, err := d.varint(); err != nil {
				return fmt.Errorf("store: read time delta: %w", err)
			}
			bits, err := d.fixed(8)
			if err != nil {
				return fmt.Errorf("store: read spend: %w", err)
			}
			spend := math.Float64frombits(binary.LittleEndian.Uint64(bits))
			itemCount, err := d.uvarint()
			if err != nil {
				return fmt.Errorf("store: read item count: %w", err)
			}
			if itemCount > maxBasketItems {
				return fmt.Errorf("store: implausible basket size %d", itemCount)
			}
			normalized := true
			prevItem := uint64(0)
			for j := uint64(0); j < itemCount; j++ {
				var delta uint64
				if d.i < len(d.b) && d.b[d.i] < 0x80 {
					delta = uint64(d.b[d.i])
					d.i++
				} else if delta, err = d.uvarint(); err != nil {
					return fmt.Errorf("store: read item: %w", err)
				}
				item := prevItem + delta
				if item == 0 || item > math.MaxUint32 {
					return fmt.Errorf("store: item id %d out of range", item)
				}
				if j > 0 && item <= prevItem {
					normalized = false
				}
				prevItem = item
			}
			if spend < 0 {
				return fmt.Errorf("store: customer %d: negative spend %v", id, spend)
			}
			if !normalized {
				return fmt.Errorf("store: customer %d: basket not normalized", id)
			}
			rn.items += int(itemCount)
		}
		// A record without receipts adds no customer.
		if rn.receipts > 0 {
			d.runs = append(d.runs, rn)
		}
	}
	return nil
}

// fill decodes the validated runs into a store. Each customer's receipts
// sit back to back in one receipt slab, in the order they were read, and
// each basket is a capacity-clipped window of one item slab. A history
// out of time order is stably sorted, as Build sorts it.
func (d *decoder) fill() *Store {
	runs := d.runs
	ids, bounds, at := groupByCustomer(len(runs),
		func(k int) retail.CustomerID { return runs[k].id },
		func(k int) int { return runs[k].receipts })
	items := 0
	for k := range runs {
		items += runs[k].items
	}
	recs := make([]retail.Receipt, bounds[len(ids)])
	slab := make(retail.Basket, items)
	for k := range runs {
		rn := &runs[k]
		d.i = rn.off
		prev := int64(0)
		out := recs[at[k] : at[k]+rn.receipts]
		for j := range out {
			dt, _ := d.varint()
			prev += dt
			spend := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.i:]))
			d.i += 8
			n, _ := d.uvarint()
			basket := slab[:n:n]
			slab = slab[n:]
			item := uint64(0)
			for m := range basket {
				delta := uint64(d.b[d.i])
				if delta < 0x80 {
					d.i++
				} else {
					delta, _ = d.uvarint()
				}
				item += delta
				basket[m] = retail.ItemID(item)
			}
			out[j] = retail.Receipt{Time: time.Unix(prev, 0).UTC(), Items: basket, Spend: spend}
		}
	}
	histories := make([]retail.History, len(ids))
	for g, id := range ids {
		histories[g] = retail.History{Customer: id, Receipts: recs[bounds[g]:bounds[g+1]:bounds[g+1]]}
		histories[g].Sort()
	}
	return assemble(histories)
}

// groupByCustomer lays out n entries, given in arrival order, customer by
// customer: a counting sort keyed by customer id that keeps arrival order
// within a customer. Entry k belongs to customer id(k) and takes size(k)
// slots. It returns the distinct customers in ascending order, bounds
// (customer g's slots are [bounds[g], bounds[g+1])) and at (entry k's
// first slot).
func groupByCustomer(n int, id func(k int) retail.CustomerID, size func(k int) int) (ids []retail.CustomerID, bounds, at []int) {
	at = make([]int, n)
	if ascendingIDs(n, id) {
		// Already grouped and in order, as every segment this package
		// writes is: the layout is the arrival order itself.
		ids = make([]retail.CustomerID, 0, n)
		bounds = make([]int, 0, n+1)
		slot := 0
		for k := range at {
			if len(ids) == 0 || id(k) != ids[len(ids)-1] {
				ids = append(ids, id(k))
				bounds = append(bounds, slot)
			}
			at[k] = slot
			slot += size(k)
		}
		return ids, append(bounds, slot), at
	}
	// Number the customers in arrival order, total their sizes, then rank
	// them by id.
	group := make(map[retail.CustomerID]int)
	var sizes []int
	for k := range at {
		g, ok := group[id(k)]
		if !ok {
			g = len(ids)
			group[id(k)] = g
			ids = append(ids, id(k))
			sizes = append(sizes, 0)
		}
		at[k] = g
		sizes[g] += size(k)
	}
	order := make([]int, len(ids))
	for g := range order {
		order[g] = g
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(ids[a], ids[b]) })
	next := make([]int, len(ids)) // next free slot of each arrival-numbered group
	bounds = make([]int, len(ids)+1)
	sorted := make([]retail.CustomerID, len(ids))
	for r, g := range order {
		sorted[r] = ids[g]
		next[g] = bounds[r]
		bounds[r+1] = bounds[r] + sizes[g]
	}
	for k, g := range at {
		at[k] = next[g]
		next[g] += size(k)
	}
	return sorted, bounds, at
}

// ascendingIDs reports whether the n entries' customer ids never decrease.
func ascendingIDs(n int, id func(k int) retail.CustomerID) bool {
	for k := 1; k < n; k++ {
		if id(k) < id(k-1) {
			return false
		}
	}
	return true
}
