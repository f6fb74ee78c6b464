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

// TestEachByTimeFarInstants: instants whose Unix second count lies near
// the int64 limits order as time.Time orders them, which is not the
// order of their Unix seconds.
func TestEachByTimeFarInstants(t *testing.T) {
	b := NewBuilder()
	times := []time.Time{
		time.Unix(math.MaxInt64-5, 0), time.Unix(0, 1), time.Unix(0, 0),
		time.Unix(math.MinInt64+5, 0), time.Unix(-unixToInternal, 0), time.Unix(math.MaxInt64-5, 0).In(fuzzZones[1]),
	}
	for k, ts := range times {
		must(t, b.Add(retail.CustomerID(k%3), ts, []retail.ItemID{1}, float64(k)))
	}
	s := b.Build()
	want := timeSortedReference(s)
	var got []visit
	EachByTime(s, func(id retail.CustomerID, r retail.Receipt) bool {
		got = append(got, visit{id, r})
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("visited %d receipts, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k].id != want[k].id || got[k].r.Spend != want[k].r.Spend {
			t.Fatalf("visit %d: customer %d spend %v, want customer %d spend %v",
				k, got[k].id, got[k].r.Spend, want[k].id, want[k].r.Spend)
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
