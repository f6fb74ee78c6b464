package stream

// The SMN1 writer as it stood before appendState: snapshotWriter's
// bufio.Writer over w, flushed before every customer's embedded tracker
// snapshot, which then went to w in its own Write. It stays as the byte
// reference the append encoder is compared with
// (TestWriteSnapshotMatchesReference, FuzzReadMonitorSnapshot), and
// TestSnapshotPreRetentionCompat and TestReadMonitorSnapshotValidation
// hand-build records with it. The tracker snapshot is now written through
// core.State.AppendSnapshot, the one STK1 writer outside core's tests.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/window"
)

// snapshotWriter streams the SMN1 encoding state by state: the header is
// written on construction, then writeState once per customer in ascending
// id order, then flush. Splitting the writer from the iteration lets the
// sharded monitor stream its per-shard maps through a k-way id merge
// without first materializing one merged state map.
type snapshotWriter struct {
	w   io.Writer
	bw  *bufio.Writer
	buf [binary.MaxVarintLen64]byte
}

func (sw *snapshotWriter) putU(v uint64) error {
	n := binary.PutUvarint(sw.buf[:], v)
	_, err := sw.bw.Write(sw.buf[:n])
	return err
}

func (sw *snapshotWriter) putI(v int64) error {
	n := binary.PutVarint(sw.buf[:], v)
	_, err := sw.bw.Write(sw.buf[:n])
	return err
}

// newSnapshotWriter writes the SMN1 header (magic, grid, customer count).
func newSnapshotWriter(w io.Writer, grid window.Grid, customers int) (*snapshotWriter, error) {
	sw := &snapshotWriter{w: w, bw: bufio.NewWriter(w)}
	if _, err := sw.bw.Write(monitorMagic[:]); err != nil {
		return nil, fmt.Errorf("stream: write magic: %w", err)
	}
	binary.LittleEndian.PutUint64(sw.buf[:8], uint64(grid.Origin().Unix()))
	if _, err := sw.bw.Write(sw.buf[:8]); err != nil {
		return nil, err
	}
	if err := sw.putU(uint64(grid.Span().Months)); err != nil {
		return nil, err
	}
	if err := sw.putU(uint64(customers)); err != nil {
		return nil, err
	}
	return sw, nil
}

// writeState encodes one customer's state, including the embedded tracker
// snapshot; model is the monitor's tracker options.
func (sw *snapshotWriter) writeState(id retail.CustomerID, st *custState, model core.Options) error {
	if err := sw.putU(uint64(id)); err != nil {
		return err
	}
	if err := sw.putI(int64(st.openK)); err != nil {
		return err
	}
	if err := sw.putI(int64(st.lastScoredK)); err != nil {
		return err
	}
	flags := byte(4) // bit2: lastActiveK always written since the retention horizon landed
	if st.lastDefined {
		flags |= 1
	}
	if st.scored {
		flags |= 2
	}
	if err := sw.bw.WriteByte(flags); err != nil {
		return err
	}
	if err := sw.putI(int64(st.lastActiveK)); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(sw.buf[:8], math.Float64bits(st.lastStability))
	if _, err := sw.bw.Write(sw.buf[:8]); err != nil {
		return err
	}
	if err := sw.putU(uint64(len(st.pending))); err != nil {
		return err
	}
	prev := uint64(0)
	for _, it := range st.pending {
		if err := sw.putU(uint64(it) - prev); err != nil {
			return err
		}
		prev = uint64(it)
	}
	if err := sw.bw.Flush(); err != nil {
		return err
	}
	if _, err := sw.w.Write(st.tracker.AppendSnapshot(nil, model)); err != nil {
		return fmt.Errorf("stream: customer %d tracker: %w", id, err)
	}
	return nil
}

func (sw *snapshotWriter) flush() error { return sw.bw.Flush() }

// writeStatesRef is writeStates as it stood before the append encoder: the
// same k-way merge by customer id, written through snapshotWriter.
func writeStatesRef(w io.Writer, cfg Config, shardStates []map[retail.CustomerID]*custState) error {
	total := 0
	heads := make([][]retail.CustomerID, len(shardStates))
	for i, states := range shardStates {
		total += len(states)
		heads[i] = sortedStateIDs(states)
	}
	sw, err := newSnapshotWriter(w, cfg.Grid, total)
	if err != nil {
		return err
	}
	for {
		// Pick the shard whose next id is smallest; the shard count is an
		// operational handful, so a linear scan beats heap bookkeeping.
		best := -1
		for i, ids := range heads {
			if len(ids) == 0 {
				continue
			}
			if best < 0 || ids[0] < heads[best][0] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		id := heads[best][0]
		heads[best] = heads[best][1:]
		if err := sw.writeState(id, shardStates[best][id], cfg.Model); err != nil {
			return err
		}
	}
	return sw.flush()
}
