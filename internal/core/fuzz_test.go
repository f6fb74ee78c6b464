package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"github.com/gautrais/stability/internal/retail"
)

// FuzzReadTrackerSnapshot asserts the snapshot reader never panics on
// corrupt input and that accepted snapshots re-serialize consistently: the
// append encoder writes the reference writer's bytes (persist_ref_test.go),
// also after a prefix, and they read back to the same state.
func FuzzReadTrackerSnapshot(f *testing.F) {
	tr, _ := NewTracker(Options{Alpha: 2})
	tr.Observe(basket(1, 2, 3))
	tr.Observe(basket(1))
	var buf bytes.Buffer
	if err := tr.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("STK1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		restored, err := ReadTrackerSnapshot(bytes.NewReader(input))
		if err != nil {
			return
		}
		// Accepted snapshots must have valid options and re-serialize.
		if err := restored.Options().Validate(); err != nil {
			t.Fatalf("restored tracker has invalid options: %v", err)
		}
		var out, ref bytes.Buffer
		if err := restored.WriteSnapshot(&out); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if err := restored.st.WriteSnapshot(restored.sc.opts, &ref); err != nil {
			t.Fatalf("reference re-serialize: %v", err)
		}
		if !bytes.Equal(out.Bytes(), ref.Bytes()) {
			t.Fatalf("append encoder wrote %x, reference writer %x", out.Bytes(), ref.Bytes())
		}
		if got := restored.st.AppendSnapshot([]byte("prefix"), restored.sc.opts); !bytes.Equal(got, append([]byte("prefix"), out.Bytes()...)) {
			t.Fatalf("AppendSnapshot after a prefix wrote %x", got)
		}
		again, err := ReadTrackerSnapshot(&out)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if again.Windows() != restored.Windows() || again.Seen() != restored.Seen() {
			t.Fatalf("round trip changed state")
		}
	})
}

// FuzzObserveIf feeds one fuzzed window sequence to two trackers with the
// same options: the reference explains every window with Observe, the
// other runs ObserveIf with a fuzzed cap j and a fuzzed explain decision.
// After every window the scores must match bit for bit, an explained
// window's Missing must be the reference list cut to the effective cap
// (the smaller of j and MaxBlame, counting only the ones that are set), an
// unexplained one must carry no lists, and both trackers must serialize to
// the same STK1 bytes.
//
// Byte 0 picks MaxBlame (0, below j or above j) and the count policy,
// byte 1 the cap j (0–7), byte 2 seeds the explain decisions; each later
// byte is one window over items 1–8, so repeated items tie on Net often.
func FuzzObserveIf(f *testing.F) {
	f.Add([]byte{0x00, 3, 0xa5, 0xff, 0x0f, 0x00, 0xf0, 0x01, 0x00, 0x00})
	f.Add([]byte{0x01, 3, 0xff, 0xff, 0xff, 0x03, 0x00, 0x81, 0xff})
	f.Add([]byte{0x06, 2, 0x5a, 0x00, 0xff, 0xfe, 0x7f, 0x00, 0x00, 0x11})
	f.Add([]byte{0x03, 0, 0x33, 0xff, 0x00, 0xaa, 0x55})
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) < 3 {
			return
		}
		j := int(input[1] % 8)
		opts := Options{Alpha: 2, Policy: CountPolicy(input[0] & 1)}
		switch (input[0] >> 1) % 3 {
		case 1:
			opts.MaxBlame = max(j-1, 1) // below j (or equal when j ≤ 1)
		case 2:
			opts.MaxBlame = j + 2 // above j
		}
		limit := opts.MaxBlame
		if j > 0 && (limit == 0 || j < limit) {
			limit = j
		}
		ref, err := NewTracker(opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewTracker(opts)
		if err != nil {
			t.Fatal(err)
		}
		decisions := input[2]
		for w, b := range input[3:] {
			var ids []retail.ItemID
			for bit := 0; bit < 8; bit++ {
				if b&(1<<bit) != 0 {
					ids = append(ids, retail.ItemID(bit+1))
				}
			}
			items := retail.NewBasket(ids)
			want := ref.Observe(items)
			explain := decisions&(1<<(w%8)) != 0
			var seen Result
			calls := 0
			res := got.ObserveIf(items, j, func(r Result) bool {
				seen = r
				calls++
				return explain
			})
			if calls != 1 {
				t.Fatalf("window %d: explain called %d times", w, calls)
			}
			if seen.Missing != nil || seen.NewItems != nil {
				t.Fatalf("window %d: explain saw lists before deciding", w)
			}
			for _, r := range []Result{seen, res} {
				if math.Float64bits(r.Stability) != math.Float64bits(want.Stability) ||
					math.Float64bits(r.Drop) != math.Float64bits(want.Drop) ||
					r.Defined != want.Defined || r.Counted != want.Counted || r.Seq != want.Seq {
					t.Fatalf("window %d: score %+v, Observe %+v", w, r, want)
				}
			}
			if !explain {
				if res.Missing != nil || res.NewItems != nil {
					t.Fatalf("window %d: unexplained window carries lists %+v", w, res)
				}
			} else {
				wantMissing := want.Missing
				if limit > 0 && len(wantMissing) > limit {
					wantMissing = wantMissing[:limit]
				}
				if len(res.Missing) != len(wantMissing) || cap(res.Missing) != len(res.Missing) {
					t.Fatalf("window %d: Missing len %d cap %d, want len %d (%+v vs %+v)",
						w, len(res.Missing), cap(res.Missing), len(wantMissing), res.Missing, wantMissing)
				}
				if (res.Missing == nil) != (wantMissing == nil) {
					t.Fatalf("window %d: Missing nil-ness %v, Observe %v", w, res.Missing == nil, wantMissing == nil)
				}
				for i, m := range res.Missing {
					r := wantMissing[i]
					if m.Item != r.Item || m.Net != r.Net ||
						math.Float64bits(m.LogSignificance) != math.Float64bits(r.LogSignificance) ||
						math.Float64bits(m.Share) != math.Float64bits(r.Share) {
						t.Fatalf("window %d: Missing[%d] = %+v, want %+v", w, i, m, r)
					}
				}
				if !slices.Equal(res.NewItems, want.NewItems) {
					t.Fatalf("window %d: NewItems %v, want %v", w, res.NewItems, want.NewItems)
				}
			}
			var a, b bytes.Buffer
			if err := ref.WriteSnapshot(&a); err != nil {
				t.Fatal(err)
			}
			if err := got.WriteSnapshot(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("window %d: STK1 bytes differ", w)
			}
		}
	})
}
