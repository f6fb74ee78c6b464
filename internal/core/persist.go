package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/gautrais/stability/internal/retail"
)

// Tracker state snapshot format (little-endian, varint-heavy):
//
//	magic "STK1" (4 bytes)
//	float64 alpha (IEEE 754 bits)
//	byte    policy
//	uvarint maxBlame
//	uvarint windows (W)
//	byte    started (0/1)
//	uvarint seq
//	byte    prevDefined (0/1)
//	float64 prevStability
//	uvarint itemCount
//	per item (ascending ItemID): uvarint idDelta, uvarint c
//
// Snapshots let a long-running monitor persist per-customer model state
// across restarts without replaying the full receipt history.
var trackerMagic = [4]byte{'S', 'T', 'K', '1'}

// WriteSnapshot serializes the tracker's full state in one Write.
func (t *Tracker) WriteSnapshot(w io.Writer) error {
	_, err := w.Write(t.st.AppendSnapshot(nil, t.sc.opts))
	return err
}

// AppendSnapshot appends the state, encoded as the snapshot of a tracker
// with options opts, to b and returns the extended slice: the bytes
// Tracker.WriteSnapshot writes for that tracker.
func (s *State) AppendSnapshot(b []byte, opts Options) []byte {
	b = append(b, trackerMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(opts.Alpha))
	b = append(b, byte(opts.Policy))
	b = binary.AppendUvarint(b, uint64(opts.MaxBlame))
	b = binary.AppendUvarint(b, uint64(s.windows))
	b = appendBool(b, s.started)
	b = binary.AppendUvarint(b, uint64(s.seq))
	b = appendBool(b, s.prevDefined)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.prevStability))
	b = binary.AppendUvarint(b, uint64(len(s.items)))
	// The item column is maintained in ascending id order — exactly the
	// snapshot's wire order.
	prev := uint64(0)
	for i, id := range s.items {
		b = binary.AppendUvarint(b, uint64(id)-prev)
		prev = uint64(id)
		b = binary.AppendUvarint(b, uint64(s.counts[i]))
	}
	return b
}

// appendBool appends v as one byte, 0 or 1.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ReadTrackerSnapshot restores a tracker from a snapshot written by
// WriteSnapshot. When r is already a *bufio.Reader it is used directly —
// callers embedding tracker snapshots in larger streams (package stream)
// depend on no read-ahead beyond the snapshot's own bytes.
func ReadTrackerSnapshot(r io.Reader) (*Tracker, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	t := new(Tracker)
	opts, err := t.st.ReadSnapshot(br)
	if err != nil {
		return nil, err
	}
	t.sc = newScorer(opts, SharedSigTable(opts.Alpha))
	return t, nil
}

// ReadSnapshot decodes one tracker snapshot from br into s and returns the
// options it was written with, validated. It replaces all of s, reusing its
// column capacity, and reads no byte past the snapshot. On error s holds a
// partial state.
func (s *State) ReadSnapshot(br *bufio.Reader) (Options, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return Options{}, fmt.Errorf("core: read magic: %w", err)
	}
	if magic != trackerMagic {
		return Options{}, fmt.Errorf("core: bad magic %q (not a STK1 snapshot)", magic[:])
	}
	var f8 [8]byte
	getF := func() (float64, error) {
		if _, err := io.ReadFull(br, f8[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(f8[:])), nil
	}
	getB := func() (bool, error) {
		b, err := br.ReadByte()
		return b != 0, err
	}

	alpha, err := getF()
	if err != nil {
		return Options{}, fmt.Errorf("core: read alpha: %w", err)
	}
	policyByte, err := br.ReadByte()
	if err != nil {
		return Options{}, fmt.Errorf("core: read policy: %w", err)
	}
	maxBlame, err := binary.ReadUvarint(br)
	if err != nil {
		return Options{}, fmt.Errorf("core: read maxBlame: %w", err)
	}
	opts := Options{Alpha: alpha, Policy: CountPolicy(policyByte), MaxBlame: int(maxBlame)}
	if err := opts.Validate(); err != nil {
		return Options{}, fmt.Errorf("core: snapshot options: %w", err)
	}
	s.reset()
	windows, err := binary.ReadUvarint(br)
	if err != nil {
		return Options{}, fmt.Errorf("core: read windows: %w", err)
	}
	if windows > math.MaxInt32 {
		return Options{}, fmt.Errorf("core: implausible window count %d", windows)
	}
	s.windows = int32(windows)
	if s.started, err = getB(); err != nil {
		return Options{}, fmt.Errorf("core: read started: %w", err)
	}
	seq, err := binary.ReadUvarint(br)
	if err != nil {
		return Options{}, fmt.Errorf("core: read seq: %w", err)
	}
	s.seq = int(seq)
	if s.prevDefined, err = getB(); err != nil {
		return Options{}, fmt.Errorf("core: read prevDefined: %w", err)
	}
	if s.prevStability, err = getF(); err != nil {
		return Options{}, fmt.Errorf("core: read prevStability: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return Options{}, fmt.Errorf("core: read item count: %w", err)
	}
	const maxItems = 1 << 28
	if count > maxItems {
		return Options{}, fmt.Errorf("core: implausible item count %d", count)
	}
	if count > 0 && count <= 1<<16 {
		// Size the columns for plausible repertoires; huge claimed counts
		// allocate incrementally so a corrupt header can't balloon.
		if uint64(cap(s.items)) < count {
			s.items = make([]retail.ItemID, 0, count)
		}
		if uint64(cap(s.counts)) < count {
			s.counts = make([]int32, 0, count)
		}
	}
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return Options{}, fmt.Errorf("core: read item id: %w", err)
		}
		if d == 0 && i > 0 {
			// Ids are strictly ascending on the wire; a zero delta would
			// duplicate an entry in the canonical order.
			return Options{}, fmt.Errorf("core: duplicate item id %d in snapshot", prev)
		}
		prev += d
		if prev == 0 || prev > math.MaxUint32 {
			return Options{}, fmt.Errorf("core: item id %d out of range", prev)
		}
		c, err := binary.ReadUvarint(br)
		if err != nil {
			return Options{}, fmt.Errorf("core: read item counter: %w", err)
		}
		if c == 0 || c > windows {
			return Options{}, fmt.Errorf("core: item %d count %d inconsistent with %d windows", prev, c, windows)
		}
		s.items = append(s.items, retail.ItemID(prev)) // wire order is ascending
		s.counts = append(s.counts, int32(c))
		if int32(c) > s.maxCount {
			s.maxCount = int32(c)
		}
	}
	return opts, nil
}
