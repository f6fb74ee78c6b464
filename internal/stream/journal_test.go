package stream

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/gautrais/stability/internal/faultfs"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/store"
)

// appendRecorder is an FS that keeps the bytes written through each
// OpenAppend handle. The journal opens one handle per segment append, so
// each entry is one segment as written.
type appendRecorder struct {
	faultfs.FS
	mu      sync.Mutex
	appends [][]byte
}

func (r *appendRecorder) OpenAppend(name string) (faultfs.File, error) {
	f, err := r.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.appends = append(r.appends, nil)
	return &recordedFile{File: f, rec: r, k: len(r.appends) - 1}, nil
}

// recordedFile copies every write into its appendRecorder entry.
type recordedFile struct {
	faultfs.File
	rec *appendRecorder
	k   int
}

func (f *recordedFile) Write(p []byte) (int, error) {
	f.rec.mu.Lock()
	f.rec.appends[f.k] = append(f.rec.appends[f.k], p...)
	f.rec.mu.Unlock()
	return f.File.Write(p)
}

// untidyFeed is randomFeed with what library callers may send: every
// fourth receipt is followed by one for the same customer earlier in the
// same month (out of order inside the customer's window), every fifth by
// one at the same instant in another zone with another basket (equal
// timestamps), and every third basket is raw (unsorted, with a repeat).
func untidyFeed(t *testing.T, seed int64, customers, events int) []feedEvent {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	zone := time.FixedZone("IST", 5*3600+1800)
	var feed []feedEvent
	for k, ev := range randomFeed(t, seed, customers, events) {
		if k%3 == 0 && len(ev.items) > 1 {
			raw := slices.Clone(ev.items)
			slices.Reverse(raw)
			ev.items = append(raw, raw[0])
		}
		feed = append(feed, ev)
		if k%4 == 0 {
			earlier := ev.t.Add(-time.Duration(r.Intn(72)) * time.Hour)
			if earlier.Month() != ev.t.Month() {
				earlier = time.Date(ev.t.Year(), ev.t.Month(), 1, 0, 0, 0, 0, time.UTC)
			}
			feed = append(feed, feedEvent{id: ev.id, t: earlier, items: retail.Basket{retail.ItemID(r.Intn(8) + 1)}})
		}
		if k%5 == 0 {
			feed = append(feed, feedEvent{id: ev.id, t: ev.t.In(zone), items: retail.Basket{9, retail.ItemID(r.Intn(8) + 1)}})
		}
	}
	return feed
}

// TestJournalSegmentsMatchBuilderBytes: every journal segment is
// byte-identical to NewBuilder, AddReceipt of the receipts it holds in
// arrival order, Build and WriteBinary, on feeds with out-of-order
// receipts inside a customer's window, equal timestamps and raw baskets.
func TestJournalSegmentsMatchBuilderBytes(t *testing.T) {
	for _, seed := range []int64{71, 72} {
		feed := untidyFeed(t, seed, 9, 400)
		rec := &appendRecorder{FS: faultfs.OS{}}
		cfg := ingestorConfig(t, 2)
		cfg.JournalPath = filepath.Join(t.TempDir(), "receipts.stbj")
		cfg.FS = rec
		ing, err := NewIngestor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		enqueueAll(t, ing, feed, 13)
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if len(rec.appends) < 3 {
			t.Fatalf("seed %d: %d journal segments, want several", seed, len(rec.appends))
		}
		// Segment k holds the next receipts accepted after segment k-1's;
		// its own receipt count says how many.
		var chain []byte
		off := 0
		for k, seg := range rec.appends {
			st, err := store.ReadBinary(bytes.NewReader(seg))
			if err != nil {
				t.Fatalf("seed %d: segment %d: %v", seed, k, err)
			}
			n := st.NumReceipts()
			if off+n > len(feed) {
				t.Fatalf("seed %d: segment %d holds %d receipts, only %d left", seed, k, n, len(feed)-off)
			}
			b := store.NewBuilder()
			for _, ev := range feed[off : off+n] {
				if err := b.AddReceipt(ev.id, retail.Receipt{Time: ev.t, Items: retail.NewBasket(ev.items)}); err != nil {
					t.Fatal(err)
				}
			}
			var want bytes.Buffer
			if err := b.Build().WriteBinary(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), seg) {
				t.Fatalf("seed %d: segment %d (receipts %d to %d) differs from the Builder's bytes", seed, k, off, off+n)
			}
			off += n
			chain = append(chain, seg...)
		}
		if off != len(feed) {
			t.Fatalf("seed %d: journal segments hold %d receipts, fed %d", seed, off, len(feed))
		}
		got, err := os.ReadFile(cfg.JournalPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(chain, got) {
			t.Fatalf("seed %d: journal file differs from its appended segments", seed)
		}
	}
}
