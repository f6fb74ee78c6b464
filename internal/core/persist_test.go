package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTrackerSnapshotRoundTrip(t *testing.T) {
	// The restored tracker must continue exactly like the original: for
	// any prefix of windows, snapshot + restore + continue == continue.
	prop := func(seed int64, splitRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		windows := make([]int, 25)
		split := int(splitRaw % 25)

		orig, _ := NewTracker(Options{Alpha: 2, MaxBlame: 3})
		for i := 0; i < split; i++ {
			orig.Observe(randomBasket(r, 7))
			windows[i] = 1
		}
		var buf bytes.Buffer
		if err := orig.WriteSnapshot(&buf); err != nil {
			return false
		}
		restored, err := ReadTrackerSnapshot(&buf)
		if err != nil {
			return false
		}
		if restored.Windows() != orig.Windows() || restored.Seen() != orig.Seen() {
			return false
		}
		// Continue both on identical input.
		r2 := rand.New(rand.NewSource(seed + 999))
		for i := 0; i < 15; i++ {
			b := randomBasket(r2, 7)
			ra := orig.Observe(b)
			rb := restored.Observe(b)
			if math.Abs(ra.Stability-rb.Stability) > 1e-15 || ra.Defined != rb.Defined {
				return false
			}
			if math.Abs(ra.Drop-rb.Drop) > 1e-15 {
				return false
			}
			if len(ra.Missing) != len(rb.Missing) {
				return false
			}
			for j := range ra.Missing {
				if ra.Missing[j] != rb.Missing[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestTrackerSnapshotPreservesOptions(t *testing.T) {
	orig, _ := NewTracker(Options{Alpha: 3.5, Policy: CountFromOrigin, MaxBlame: 7})
	orig.Observe(basket(itemA))
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadTrackerSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Options() != orig.Options() {
		t.Fatalf("options: %+v vs %+v", restored.Options(), orig.Options())
	}
}

func TestTrackerSnapshotFreshTracker(t *testing.T) {
	orig, _ := NewTracker(Options{Alpha: 2})
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadTrackerSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Windows() != 0 || restored.Seen() != 0 {
		t.Fatalf("fresh restore: windows=%d seen=%d", restored.Windows(), restored.Seen())
	}
}

func TestReadTrackerSnapshotErrors(t *testing.T) {
	if _, err := ReadTrackerSnapshot(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ReadTrackerSnapshot(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncation at every prefix length must error, never panic.
	orig, _ := NewTracker(Options{Alpha: 2})
	orig.Observe(basket(itemA, itemB))
	orig.Observe(basket(itemA))
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadTrackerSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated snapshot (%d of %d bytes) accepted", cut, len(full))
		}
	}
	// Corrupt alpha (≤ 1) must be rejected by option validation.
	bad := append([]byte{}, full...)
	for i := 4; i < 12; i++ {
		bad[i] = 0
	}
	if _, err := ReadTrackerSnapshot(bytes.NewReader(bad)); err == nil {
		t.Fatal("zero alpha accepted")
	}
	// A window count past the tracker's int32 counters must be refused, not
	// truncated: truncated, an accepted snapshot wrote back item counts
	// above its window count, which the reader then refused.
	const windowsAt = 14 // magic, alpha, policy, one-byte maxBlame
	if full[windowsAt] != 2 {
		t.Fatalf("snapshot layout moved: byte %d is %d, want the window count 2", windowsAt, full[windowsAt])
	}
	bad = binary.AppendUvarint(append([]byte{}, full[:windowsAt]...), 1<<31)
	bad = append(bad, full[windowsAt+1:]...)
	if _, err := ReadTrackerSnapshot(bytes.NewReader(bad)); err == nil {
		t.Fatal("window count 1<<31 accepted")
	}
}
