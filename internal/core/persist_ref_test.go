package core

// The STK1 writer as it stood before AppendSnapshot: a bufio.Writer over
// w, one Write call per field. It stays as the byte reference the append
// encoder is compared with (FuzzReadTrackerSnapshot,
// TestSharedScorerMatchesOwnTrackers).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// WriteSnapshot serializes the state as the snapshot of a tracker with
// options opts: the bytes Tracker.WriteSnapshot writes for that tracker.
func (s *State) WriteSnapshot(opts Options, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(trackerMagic[:]); err != nil {
		return fmt.Errorf("core: write magic: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putF := func(v float64) error {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(v))
		_, err := bw.Write(buf[:8])
		return err
	}
	putB := func(v bool) error {
		b := byte(0)
		if v {
			b = 1
		}
		return bw.WriteByte(b)
	}
	if err := putF(opts.Alpha); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(opts.Policy)); err != nil {
		return err
	}
	if err := putU(uint64(opts.MaxBlame)); err != nil {
		return err
	}
	if err := putU(uint64(s.windows)); err != nil {
		return err
	}
	if err := putB(s.started); err != nil {
		return err
	}
	if err := putU(uint64(s.seq)); err != nil {
		return err
	}
	if err := putB(s.prevDefined); err != nil {
		return err
	}
	if err := putF(s.prevStability); err != nil {
		return err
	}
	if err := putU(uint64(len(s.items))); err != nil {
		return err
	}
	// The item column is maintained in ascending id order — exactly the
	// snapshot's wire order.
	prev := uint64(0)
	for i, id := range s.items {
		if err := putU(uint64(id) - prev); err != nil {
			return err
		}
		prev = uint64(id)
		if err := putU(uint64(s.counts[i])); err != nil {
			return err
		}
	}
	return bw.Flush()
}
