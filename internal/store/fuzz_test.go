package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/gautrais/stability/internal/retail"
)

// FuzzReadCSV asserts the lenient CSV reader never panics or errors on
// arbitrary input, and that whatever it accepts re-serializes cleanly.
func FuzzReadCSV(f *testing.F) {
	f.Add("customer,timestamp,spend,items\n7,2012-05-01T10:00:00Z,3.50,1|2|3\n")
	f.Add("7,2012-05-01T10:00:00Z,3.50,\n")
	f.Add("x,y,z\n")
	f.Add("")
	f.Add("7,2012-05-01T10:00:00Z,-1,1\n")
	f.Add("\"quoted,comma\",2012-05-01T10:00:00Z,1,1\n")
	f.Fuzz(func(t *testing.T, input string) {
		s, _, err := ReadCSV(strings.NewReader(input), CSVOptions{Strict: false})
		if err != nil {
			// Lenient mode only errors on reader failures, which a string
			// reader cannot produce — anything else is a bug.
			t.Fatalf("lenient ReadCSV errored: %v", err)
		}
		var buf bytes.Buffer
		if err := s.WriteCSV(&buf); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		again, rep, err := ReadCSV(&buf, CSVOptions{Strict: true})
		if err != nil || rep.Skipped != 0 {
			t.Fatalf("round trip of accepted data failed: %v (%+v)", err, rep)
		}
		if again.NumReceipts() != s.NumReceipts() {
			t.Fatalf("round trip changed receipt count: %d vs %d", again.NumReceipts(), s.NumReceipts())
		}
	})
}

// FuzzReadBinary asserts the binary reader never panics on corrupt
// snapshots — it must fail with an error instead.
func FuzzReadBinary(f *testing.F) {
	valid := randomStore(5)
	var buf bytes.Buffer
	if err := valid.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("STB1"))
	f.Add([]byte{})
	f.Add([]byte("STB1\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, input []byte) {
		s, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		// Accepted input must re-serialize and round-trip.
		var out bytes.Buffer
		if err := s.WriteBinary(&out); err != nil {
			t.Fatalf("re-serialize accepted snapshot: %v", err)
		}
		again, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if again.NumReceipts() != s.NumReceipts() {
			t.Fatalf("round trip changed receipts")
		}
	})
}

// FuzzAppendBoundary fuzzes the frozen/appended split of a pseudo-random
// receipt schedule: whatever subset of receipts arrives after the base
// store froze — including receipts timestamped before the boundary, i.e.
// out-of-order appends across the old/new frontier — Append must produce
// byte-identical stores to a from-scratch sequential Build.
func FuzzAppendBoundary(f *testing.F) {
	f.Add(int64(1), uint64(0))                  // everything frozen, empty append
	f.Add(int64(2), ^uint64(0))                 // everything appended
	f.Add(int64(3), uint64(0xAAAAAAAAAAAAAAAA)) // alternating: every appended batch reaches across the boundary
	f.Add(int64(4), uint64(1)<<63|1)            // first and last receipts appended, middle frozen
	f.Add(int64(5), uint64(0x00000000FFFFFFFF)) // early half appended after the late half froze (fully out of order)
	f.Fuzz(func(t *testing.T, seed int64, mask uint64) {
		r := rand.New(rand.NewSource(seed))
		events := randomEvents(r, 48)
		ref := NewBuilder()
		base := NewBuilder()
		delta := NewBuilder()
		for i, ev := range events {
			if mask&(1<<(uint(i)%64)) != 0 {
				delta.Add(ev.id, ev.t, ev.items, ev.spend)
			} else {
				base.Add(ev.id, ev.t, ev.items, ev.spend)
			}
		}
		for i, ev := range events {
			if mask&(1<<(uint(i)%64)) == 0 {
				ref.Add(ev.id, ev.t, ev.items, ev.spend)
			}
		}
		for i, ev := range events {
			if mask&(1<<(uint(i)%64)) != 0 {
				ref.Add(ev.id, ev.t, ev.items, ev.spend)
			}
		}
		var want, got bytes.Buffer
		if err := ref.BuildWith(Options{Workers: 1}).WriteBinary(&want); err != nil {
			t.Fatal(err)
		}
		if err := delta.Append(base.Build()).WriteBinary(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("seed %d mask %x: Append differs from from-scratch Build", seed, mask)
		}
	})
}

// FuzzReadJSONL asserts the JSONL reader never panics.
func FuzzReadJSONL(f *testing.F) {
	f.Add(`{"customer":1,"time":"2012-05-01T00:00:00Z","spend":1,"items":[1,2]}` + "\n")
	f.Add("{}\n")
	f.Add("\n\n")
	f.Add("not json\n")
	f.Fuzz(func(t *testing.T, input string) {
		_, _ = ReadJSONL(strings.NewReader(input))
	})
}

// monthSortedReference is the order EachByMonth must reproduce: every
// receipt flattened in Each order and tagged with its customer's running
// maximum month, then stably sorted by that month.
func monthSortedReference(s *Store, month func(time.Time) int) []visit {
	var out []visit
	s.Each(func(h retail.History) bool {
		for pos, r := range h.Receipts {
			m := month(r.Time)
			if prev := len(out) - 1; pos > 0 && out[prev].m > m {
				m = out[prev].m
			}
			out = append(out, visit{h.Customer, r, m})
		}
		return true
	})
	sort.SliceStable(out, func(a, b int) bool { return out[a].m < out[b].m })
	return out
}

type visit struct {
	id retail.CustomerID
	r  retail.Receipt
	m  int
}

// collectByMonth runs EachByMonth until stop returns true and records the
// visits and how often month was called.
func collectByMonth(s *Store, month func(time.Time) int, stop func(n int) bool) (got []visit, calls int) {
	counted := func(t time.Time) int {
		calls++
		return month(t)
	}
	EachByMonth(s, counted, func(id retail.CustomerID, r retail.Receipt, m int) bool {
		got = append(got, visit{id, r, m})
		return !stop(len(got))
	})
	return got, calls
}

// checkVisits fails unless got is want, receipt for receipt and month for
// month.
func checkVisits(t *testing.T, got, want []visit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("visited %d receipts, want %d", len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.id != w.id || g.m != w.m || g.r.Spend != w.r.Spend || !g.r.Time.Equal(w.r.Time) ||
			g.r.Time.Location() != w.r.Time.Location() || !g.r.Items.Equal(w.r.Items) {
			t.Fatalf("visit %d: got customer %d month %d at %v (spend %v), want customer %d month %d at %v (spend %v)",
				k, g.id, g.m, g.r.Time, g.r.Spend, w.id, w.m, w.r.Time, w.r.Spend)
		}
	}
}

// fuzzZones are the locations fuzzed receipts are stamped in: equal
// instants in different zones must tie, and zones must not leak into the
// order.
var fuzzZones = []*time.Location{
	time.UTC,
	time.FixedZone("IST", 5*3600+1800),
	time.FixedZone("PST", -8*3600),
}

// fuzzMonth is the month FuzzEachByMonth visits by: every four hours
// after day(0) make one month, so months hold ties within and across
// customers, and a receipt 400ms past its hour is dated three months
// back, so months fall along a history the way grid months do where
// time.Time's calendar wraps.
func fuzzMonth(t time.Time) int {
	m := int(t.Sub(day(0))/time.Hour) / 4
	if t.Nanosecond() != 0 {
		m -= 3
	}
	return m
}

// FuzzEachByMonth builds a store from the fuzz bytes and checks that the
// month visit gives exactly the sequence, and the months, of a stable sort
// of the flattened store by each customer's running maximum month, and
// that it computes each receipt's month once. Each 3-byte record is one
// receipt: customer (few ids, so histories interleave), a coarse time (so
// timestamps collide within and across customers) and a zone. The time
// byte's low 5 bits pick an hour and its top bit adds 400ms, so some
// receipts share a second and differ in nanoseconds, and fuzzMonth dates
// those back; bits 5 and 6 are ignored, so four byte values name each of
// the 64 instants and ties stay common. The first byte picks absent
// customers to add as empty histories and the second a visit count after
// which fn stops the iteration (0 = never).
func FuzzEachByMonth(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 1, 0, 0})       // one customer, all receipts at one instant
	f.Add([]byte{0, 0, 1, 3, 0, 2, 3, 0, 3, 3, 0, 1, 3}) // three customers tied at one instant
	f.Add([]byte{0x55, 3, 4, 9, 0, 4, 9, 1, 2, 9, 2, 2, 5, 0, 6, 1, 7})
	f.Add([]byte{0, 0, 1, 200, 0, 1, 200, 1, 2, 100, 2, 2, 50, 0})
	// Sub-second: 3h+0.4s, 3h, 4h (a later second, fewer nanoseconds),
	// 3h+0.4s in another customer and 3h+0.4s again in the first.
	f.Add([]byte{0, 0, 2, 0x83, 0, 1, 0x03, 0, 2, 0x04, 1, 1, 0x83, 2, 2, 0xa3, 0})
	// One instant in all three zones, across customers and within one.
	f.Add([]byte{0, 0, 0, 5, 2, 1, 5, 1, 0, 5, 0, 2, 5, 1, 1, 5, 2, 0, 4, 0})
	// Months that fall and rise again along one history: 8h, 8h+0.4s
	// (three months back), 9h, 13h+0.4s (back below 8h's month) and 16h,
	// with another customer in between.
	f.Add([]byte{0, 0, 1, 8, 0, 1, 0x88, 1, 2, 6, 0, 1, 9, 2, 1, 0x8d, 0, 1, 16, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var empties, stopAt byte
		if len(data) >= 2 {
			empties, stopAt, data = data[0], data[1], data[2:]
		}
		b := NewBuilder()
		for i := 0; i+2 < len(data); i += 3 {
			id := retail.CustomerID(data[i] % 6)
			// Hours from a base instant; the zone changes the wall clock,
			// never the instant, so cross-zone collisions are common.
			ts := day(0).Add(time.Duration(data[i+1]%32)*time.Hour + time.Duration(data[i+1]>>7)*400*time.Millisecond).
				In(fuzzZones[int(data[i+2])%len(fuzzZones)])
			// A unique spend tells receipts with equal time and basket apart.
			if err := b.Add(id, ts, []retail.ItemID{retail.ItemID(data[i+2]/3%4 + 1)}, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		built := b.Build()
		hs := append([]retail.History(nil), built.histories...)
		for c := 0; c < 8; c++ {
			if empties&(1<<c) == 0 {
				continue
			}
			if _, ok := built.index[retail.CustomerID(c)]; !ok {
				hs = append(hs, retail.History{Customer: retail.CustomerID(c)})
			}
		}
		sort.Slice(hs, func(a, b int) bool { return hs[a].Customer < hs[b].Customer })
		s := assemble(hs)

		want := monthSortedReference(s, fuzzMonth)
		if stopAt > 0 && int(stopAt) < len(want) {
			want = want[:stopAt]
		}
		got, calls := collectByMonth(s, fuzzMonth, func(n int) bool { return n == int(stopAt) })
		if calls != s.NumReceipts() {
			t.Fatalf("month computed %d times for %d receipts", calls, s.NumReceipts())
		}
		checkVisits(t, got, want)
	})
}

// FuzzFollowerPoll appends arbitrary bytes after a valid two-segment chain
// the follower has already consumed, then polls a few times. Poll must
// never panic, a failed poll must leave Offset where it was, and after
// every successful poll the receipts delivered so far must equal
// ReadBinary of the file's first Offset bytes: whatever the tail holds,
// the follower neither invents nor skips a receipt of a complete segment.
func FuzzFollowerPoll(f *testing.F) {
	var chain, extra bytes.Buffer
	for _, s := range []*Store{seededStore(33, 4, 5, 300), seededStore(34, 3, 4, 300)} {
		if err := s.WriteBinary(&chain); err != nil {
			f.Fatal(err)
		}
	}
	if err := seededStore(35, 2, 3, 300).WriteBinary(&extra); err != nil {
		f.Fatal(err)
	}
	seg := extra.Bytes()
	f.Add([]byte{})
	f.Add(seg)                                             // one more complete segment
	f.Add(seg[:len(seg)/2])                                // torn segment
	f.Add(append(append([]byte(nil), seg...), seg[:7]...)) // complete segment, then a torn one
	f.Add(append(append([]byte(nil), seg...), "XXXXXXXX"...))
	f.Add([]byte("STB1\x01\x05\x01\x00\x00\x00\x00\x00\x00\x00\xf0\xbf\x00")) // negative spend
	f.Add([]byte("NOPE"))
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "chain.stb")
		if err := os.WriteFile(path, chain.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		fol := NewFollower(nil, path)
		delivered := NewBuilder()
		poll := func() error {
			before := fol.Offset()
			st, err := fol.Poll()
			if err != nil {
				if fol.Offset() != before {
					t.Fatalf("failed poll moved the offset from %d to %d: %v", before, fol.Offset(), err)
				}
				return err
			}
			if st != nil {
				st.Each(func(h retail.History) bool {
					for _, r := range h.Receipts {
						if err := delivered.AddReceipt(h.Customer, r); err != nil {
							t.Fatalf("delivered receipt does not re-add: %v", err)
						}
					}
					return true
				})
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			prefix, err := ReadBinary(bytes.NewReader(data[:fol.Offset()]))
			if err != nil {
				t.Fatalf("the first %d bytes the follower consumed do not decode: %v", fol.Offset(), err)
			}
			var want, got bytes.Buffer
			if err := prefix.WriteBinary(&want); err != nil {
				t.Fatal(err)
			}
			if err := delivered.Build().WriteBinary(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("receipts delivered through offset %d differ from ReadBinary of that prefix", fol.Offset())
			}
			return nil
		}
		if err := poll(); err != nil || fol.Offset() != int64(chain.Len()) {
			t.Fatalf("valid chain: offset %d of %d, err %v", fol.Offset(), chain.Len(), err)
		}
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(tail); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}
		// A poll that delivers segments before a bad one stops at the bad
		// boundary; the next poll reports it, so three polls reach every
		// outcome.
		for k := 0; k < 3; k++ {
			poll()
		}
	})
}

// stb1Receipt encodes one receipt body as a segment lays it out: time
// delta, spend bits, item count and item deltas.
func stb1Receipt(dt int64, spend float64, count uint64, deltas ...uint64) []byte {
	b := binary.AppendVarint(nil, dt)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(spend))
	b = binary.AppendUvarint(b, count)
	for _, d := range deltas {
		b = binary.AppendUvarint(b, d)
	}
	return b
}

// stb1Segment encodes a segment header for one customer with receipts
// receipts, followed by body.
func stb1Segment(customer, receipts uint64, body []byte) []byte {
	b := append([]byte("STB1"), 1)
	b = binary.AppendUvarint(b, customer)
	b = binary.AppendUvarint(b, receipts)
	return append(b, body...)
}

// segmentBytes renders a polled or decoded store for comparison; nil
// stays nil.
func segmentBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	if s == nil {
		return nil
	}
	var got, ref bytes.Buffer
	if err := s.WriteBinary(&got); err != nil {
		t.Fatal(err)
	}
	if err := refWriteBinary(&ref, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatal("WriteBinary differs from the reference encoder")
	}
	return got.Bytes()
}

// errText is an error's text, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzDecodeSTB1 runs the package decoder and the Builder-based reference
// decoder of codec_ref_test.go on the same bytes, two ways. Through
// ReadBinary, both must fail with the same text or decode to stores with
// the same WriteBinary bytes. Through a Follower tailing a valid
// two-segment chain with the bytes appended, three polls of each must
// agree after every poll on the error text, Offset, Segments and the
// bytes of what was delivered. Every decoded store is also encoded by
// both encoders, which must agree.
func FuzzDecodeSTB1(f *testing.F) {
	var chain bytes.Buffer
	for _, s := range []*Store{seededStore(33, 4, 5, 300), seededStore(34, 3, 4, 300)} {
		if err := s.WriteBinary(&chain); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte{})
	f.Add(binaryBytesOf(f, seededStore(35, 2, 3, 300)))
	// A negative spend, then a cut inside the basket: torn, not corrupt.
	f.Add(stb1Segment(5, 1, stb1Receipt(1000, -1, 3, 1, 1)))
	// An unsorted basket (a repeated item), then a cut: torn, not corrupt.
	f.Add(stb1Segment(5, 1, stb1Receipt(1000, 1, 3, 5, 0)))
	// An item delta that wraps to a smaller id: not normalized.
	f.Add(stb1Segment(5, 1, stb1Receipt(1000, 1, 2, 10, math.MaxUint64-4)))
	// A 10-byte varint that overflows, and a cut long varint.
	f.Add([]byte("STB1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02"))
	f.Add([]byte("STB1\x01\xff\xff\xff"))
	// A header claiming 2^34 customers, the most a segment may claim.
	f.Add(binary.AppendUvarint([]byte("STB1"), 1<<34))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := ReadBinary(bytes.NewReader(data))
		want, wantErr := refReadBinary(bytes.NewReader(data))
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("ReadBinary error %q, reference %q", errText(gotErr), errText(wantErr))
		}
		if !bytes.Equal(segmentBytes(t, got), segmentBytes(t, want)) {
			t.Fatal("ReadBinary decoded different receipts than the reference")
		}

		path := filepath.Join(t.TempDir(), "chain.stb")
		if err := os.WriteFile(path, append(append([]byte(nil), chain.Bytes()...), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		fol, ref := NewFollower(nil, path), NewFollower(nil, path)
		for k := 0; k < 3; k++ {
			got, gotErr := fol.Poll()
			want, wantErr := refPoll(ref)
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("poll %d: error %q, reference %q", k, errText(gotErr), errText(wantErr))
			}
			if fol.Offset() != ref.Offset() || fol.Segments() != ref.Segments() {
				t.Fatalf("poll %d: at byte %d after %d segments, reference at %d after %d",
					k, fol.Offset(), fol.Segments(), ref.Offset(), ref.Segments())
			}
			if !bytes.Equal(segmentBytes(t, got), segmentBytes(t, want)) {
				t.Fatalf("poll %d: delivered different receipts than the reference", k)
			}
		}
	})
}

// binaryBytesOf renders a store as one segment for a fuzz seed.
func binaryBytesOf(f *testing.F, s *Store) []byte {
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
