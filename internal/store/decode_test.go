package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/window"
)

// TestFollowerTornTailBeforeBasketChecks: a receipt's spend and basket
// order are checked only once its basket is read whole, so a bad receipt
// cut inside its basket is a torn tail the follower retries quietly, and
// the same receipt completed is corruption.
func TestFollowerTornTailBeforeBasketChecks(t *testing.T) {
	base := binaryBytes(t, seededStore(41, 3, 4, 300))
	for _, tc := range []struct {
		name    string
		receipt []byte
		corrupt string
	}{
		{"negative spend", stb1Receipt(1000, -1, 3, 1, 1, 1), "store: customer 5: negative spend -1"},
		{"unsorted basket", stb1Receipt(1000, 1, 3, 5, 0, 1), "store: customer 5: basket not normalized"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seg := stb1Segment(5, 1, tc.receipt)
			cut := len(seg) - 1 // inside the basket: the last item is missing
			path := filepath.Join(t.TempDir(), "chain.stb")
			must(t, os.WriteFile(path, append(append([]byte(nil), base...), seg[:cut]...), 0o644))
			f := NewFollower(nil, path)
			if _, err := f.Poll(); err != nil {
				t.Fatalf("base poll: %v", err)
			}
			if st, err := f.Poll(); err != nil || st != nil {
				t.Fatalf("cut receipt: store %v, error %v; want a quiet retry", st, err)
			}
			if _, err := ReadBinary(bytes.NewReader(seg[:cut])); errText(err) != "store: read item: EOF" {
				t.Fatalf("ReadBinary of the cut segment: %v, want the input to run out", err)
			}
			appendFile(t, path, seg[cut:])
			_, err := f.Poll()
			if err == nil || !bytes.HasSuffix([]byte(err.Error()), []byte(tc.corrupt)) {
				t.Fatalf("completed receipt: error %v, want %q", err, tc.corrupt)
			}
			if f.Offset() != int64(len(base)) {
				t.Fatalf("offset moved to %d past the corrupt segment", f.Offset())
			}
		})
	}
}

// TestReadBinaryCorruptErrorTexts pins the error of each malformed input
// for both the package decoder and the reference one.
func TestReadBinaryCorruptErrorTexts(t *testing.T) {
	valid := binaryBytes(t, seededStore(42, 2, 2, 100))
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "store: read magic: EOF"},
		{"short magic", []byte("ST"), "store: read magic: unexpected EOF"},
		{"bad magic", []byte("NOPE"), `store: bad magic "NOPE" (not a STB1 snapshot)`},
		{"bad appended magic", append(append([]byte(nil), valid...), "NOPE"...), `store: bad magic "NOPE" in appended segment`},
		{"overflowing count", []byte("STB1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02"), "store: read customer count: " + errVarintOverflow.Error()},
		{"cut count", []byte("STB1\xff\xff"), "store: read customer count: unexpected EOF"},
		{"too many customers", binary.AppendUvarint([]byte("STB1"), 1<<34+1), "store: implausible customer count 17179869185"},
		{"claimed customers", binary.AppendUvarint([]byte("STB1"), 1<<34), "store: read customer id: EOF"},
		{"cut spend", stb1Segment(5, 1, stb1Receipt(1000, 1, 0)[:5]), "store: read spend: unexpected EOF"},
		{"huge basket", stb1Segment(5, 1, stb1Receipt(1000, 1, 1<<20+1)), "store: implausible basket size 1048577"},
		{"zero item", stb1Segment(5, 1, stb1Receipt(1000, 1, 1, 0)), "store: item id 0 out of range"},
		{"item past uint32", stb1Segment(5, 1, stb1Receipt(1000, 1, 1, math.MaxUint32+1)), "store: item id 4294967296 out of range"},
		{"wrapped item", stb1Segment(5, 1, stb1Receipt(1000, 1, 2, 10, math.MaxUint64-4)), "store: customer 5: basket not normalized"},
		{"negative spend", stb1Segment(5, 1, stb1Receipt(1000, -2.5, 1, 3)), "store: customer 5: negative spend -2.5"},
	} {
		for name, read := range map[string]func(io.Reader) (*Store, error){"ReadBinary": ReadBinary, "reference": refReadBinary} {
			if _, err := read(bytes.NewReader(tc.data)); errText(err) != tc.want {
				t.Errorf("%s, %s: error %q, want %q", tc.name, name, errText(err), tc.want)
			}
		}
	}
}

// TestReadBinaryCorruptAfterReadError: input cut short by a read error
// reports that error where the bytes ran out, as a decoder reading the
// source byte by byte would.
func TestReadBinaryCorruptAfterReadError(t *testing.T) {
	valid := binaryBytes(t, seededStore(43, 3, 3, 100))
	boom := errors.New("disk on fire")
	for _, n := range []int{0, 2, len(valid) / 2, len(valid)} {
		src := io.MultiReader(bytes.NewReader(valid[:n]), errReader{boom})
		_, err := ReadBinary(src)
		_, want := refReadBinary(io.MultiReader(bytes.NewReader(valid[:n]), errReader{boom}))
		if !errors.Is(err, boom) || errText(err) != errText(want) {
			t.Errorf("cut at %d: error %q, reference %q", n, errText(err), errText(want))
		}
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// TestDecodeSortsOnlyOutOfOrderHistories: histories a segment lists out
// of time order, or a customer split across segments with an earlier
// receipt later, come out stably sorted, as Build sorts them.
func TestDecodeSortsOnlyOutOfOrderHistories(t *testing.T) {
	// Customer 5: 3000, 1000, 1000 (spends tell the equal times apart);
	// then a second segment with 2000 for customer 5 and 500 for 9.
	seg1 := stb1Segment(5, 3, append(append(stb1Receipt(3000, 1, 1, 1), stb1Receipt(-2000, 2, 1, 1)...), stb1Receipt(0, 3, 1, 1)...))
	seg2 := append([]byte("STB1"), 2)
	seg2 = append(seg2, 5, 1)
	seg2 = append(seg2, stb1Receipt(2000, 4, 1, 2)...)
	seg2 = append(seg2, 9, 1)
	seg2 = append(seg2, stb1Receipt(500, 5, 0)...)
	data := append(seg1, seg2...)
	got, err := ReadBinary(bytes.NewReader(data))
	must(t, err)
	want, err := refReadBinary(bytes.NewReader(data))
	must(t, err)
	if !bytes.Equal(segmentBytes(t, got), segmentBytes(t, want)) {
		t.Fatal("decoded store differs from the reference")
	}
	h, err := got.History(5)
	must(t, err)
	var spends []float64
	for _, r := range h.Receipts {
		spends = append(spends, r.Spend)
	}
	if want := []float64{2, 3, 4, 1}; !slices.Equal(spends, want) {
		t.Fatalf("customer 5 spends in order %v, want %v", spends, want)
	}
}

// TestEachByMonthFarInstants: receipts at Unix ±1e18 s and around the
// instants where time.Time's calendar wraps are visited at once, with no
// walk over the trillions of months between them, and a history whose
// grid month falls at the wrap keeps its order, each receipt handed its
// running maximum month.
func TestEachByMonthFarInstants(t *testing.T) {
	grid, err := window.NewGrid(day(0), window.Span{Months: 2})
	must(t, err)
	const year1 = -62135596800 // the Unix second of 0001-01-01, time.Time's zero
	customers := [][]time.Time{
		// Sorted by time, MaxInt64-5 s comes first (it wraps to the
		// earliest instant time.Time holds) and MinInt64+5 s second, both
		// dated past year 292 billion; the third is dated before year
		// -292 billion, so the month falls there.
		{
			time.Unix(1e18, 0), time.Unix(math.MinInt64-year1-1, 0), time.Unix(0, 0),
			time.Unix(math.MinInt64+5, 0), time.Unix(-1e18, 0), time.Unix(math.MaxInt64-5, 0).In(fuzzZones[1]),
		},
		{time.Unix(1e18, 0), time.Unix(-1e18, 0).In(fuzzZones[2]), time.Unix(0, 0)},
		{time.Unix(math.MaxInt64+year1, 0), time.Unix(-1e18, 0)},
	}
	b := NewBuilder()
	for id, times := range customers {
		for k, ts := range times {
			must(t, b.Add(retail.CustomerID(id), ts, []retail.ItemID{1}, float64(10*id+k)))
		}
	}
	s := b.Build()
	h, err := s.History(0)
	must(t, err)
	if m := grid.MonthIndex; m(h.Receipts[2].Time) >= m(h.Receipts[1].Time) {
		t.Fatalf("customer 0's month does not fall: %d then %d", m(h.Receipts[1].Time), m(h.Receipts[2].Time))
	}
	got, calls := collectByMonth(s, grid.MonthIndex, func(int) bool { return false })
	if calls != s.NumReceipts() {
		t.Fatalf("month computed %d times for %d receipts", calls, s.NumReceipts())
	}
	checkVisits(t, got, monthSortedReference(s, grid.MonthIndex))
	// Customer 0's running maximum is its first month, so its whole
	// history comes last, in history order.
	tail := got[len(got)-len(h.Receipts):]
	for k, v := range tail {
		if v.id != 0 || v.r.Spend != h.Receipts[k].Spend || v.m != grid.MonthIndex(h.Receipts[0].Time) {
			t.Fatalf("visit %d of the tail: customer %d spend %v month %d, want customer 0 spend %v month %d",
				k, v.id, v.r.Spend, v.m, h.Receipts[k].Spend, grid.MonthIndex(h.Receipts[0].Time))
		}
	}
}

// TestWriteBinaryMatchesReferenceEncoder: a segment many encoder chunks
// long is byte-identical to the reference encoder's, and so is a journal
// segment of the same receipts in shuffled arrival order.
func TestWriteBinaryMatchesReferenceEncoder(t *testing.T) {
	s := seededStore(44, 300, 40, 400)
	var got, want bytes.Buffer
	must(t, s.WriteBinary(&got))
	must(t, refWriteBinary(&want, s))
	if got.Len() < 4*encodeChunk {
		t.Fatalf("segment is %d bytes, want several %d-byte chunks", got.Len(), encodeChunk)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteBinary differs from the reference encoder")
	}
	var flat []CustomerReceipt
	s.Each(func(h retail.History) bool {
		for _, r := range h.Receipts {
			flat = append(flat, CustomerReceipt{h.Customer, r})
		}
		return true
	})
	rand.New(rand.NewSource(44)).Shuffle(len(flat), func(i, j int) { flat[i], flat[j] = flat[j], flat[i] })
	b := NewBuilder()
	for _, cr := range flat {
		must(t, b.AddReceipt(cr.Customer, cr.Receipt))
	}
	want.Reset()
	got.Reset()
	must(t, refWriteBinary(&want, b.Build()))
	must(t, WriteReceipts(&got, flat))
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteReceipts differs from Builder bytes of the same receipts")
	}
}

// TestGroupByCustomerLayout checks both layouts groupByCustomer can take —
// arrival order for ids that never decrease, the grouping map otherwise —
// against a stable sort of the entries by customer id.
func TestGroupByCustomerLayout(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(40)
		ids := make([]retail.CustomerID, n)
		sizes := make([]int, n)
		for k := range ids {
			ids[k] = retail.CustomerID(r.Intn(12) + 1)
			sizes[k] = r.Intn(4)
		}
		if trial%2 == 0 {
			slices.Sort(ids) // repeated ids stay adjacent
		}
		gotIDs, bounds, at := groupByCustomer(n,
			func(k int) retail.CustomerID { return ids[k] },
			func(k int) int { return sizes[k] })

		order := make([]int, n)
		for k := range order {
			order[k] = k
		}
		slices.SortStableFunc(order, func(a, b int) int { return int(ids[a]) - int(ids[b]) })
		var wantIDs []retail.CustomerID
		wantBounds := []int{0}
		wantAt := make([]int, n)
		slot := 0
		for _, k := range order {
			if len(wantIDs) == 0 || ids[k] != wantIDs[len(wantIDs)-1] {
				if len(wantIDs) > 0 {
					wantBounds = append(wantBounds, slot)
				}
				wantIDs = append(wantIDs, ids[k])
			}
			wantAt[k] = slot
			slot += sizes[k]
		}
		if len(wantIDs) > 0 {
			wantBounds = append(wantBounds, slot)
		}
		if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(bounds, wantBounds) || !slices.Equal(at, wantAt) {
			t.Fatalf("trial %d ids %v sizes %v:\ngot  %v %v %v\nwant %v %v %v",
				trial, ids, sizes, gotIDs, bounds, at, wantIDs, wantBounds, wantAt)
		}
	}
}
