package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/window"
)

// Monitor snapshot format:
//
//	magic "SMN1" (4 bytes)
//	int64   grid origin (unix seconds, UTC month start)
//	uvarint grid span months
//	uvarint customer count
//	per customer (ascending id):
//	  uvarint customer id
//	  varint  openK
//	  varint  lastScoredK
//	  byte    flags (bit0 lastDefined, bit1 scored, bit2 lastActiveK present)
//	  varint  lastActiveK (only when flags bit2 is set; pre-retention
//	          snapshots lack it and restore with lastActiveK = openK)
//	  float64 lastStability
//	  uvarint pending item count, then uvarint item deltas
//	  tracker snapshot (embedded, self-delimiting via its own counts)
//
// A restored monitor resumes exactly where the snapshot left off: the
// equivalence is property-tested. The format is shared by Monitor and
// ShardedMonitor — sharding is an operational knob, so the bytes carry no
// trace of the shard count and either monitor restores the other's snapshot.
var monitorMagic = [4]byte{'S', 'M', 'N', '1'}

// WriteSnapshot persists every tracked customer's state.
func (m *Monitor) WriteSnapshot(w io.Writer) error {
	return writeStates(w, m.cfg, []map[retail.CustomerID]*custState{m.states})
}

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
	if err := st.tracker.WriteSnapshot(model, sw.w); err != nil {
		return fmt.Errorf("stream: customer %d tracker: %w", id, err)
	}
	return nil
}

func (sw *snapshotWriter) flush() error { return sw.bw.Flush() }

// sortedStateIDs returns a state map's customer ids ascending.
func sortedStateIDs(states map[retail.CustomerID]*custState) []retail.CustomerID {
	ids := make([]retail.CustomerID, 0, len(states))
	//detlint:ignore R1 collects ids that are sorted immediately below
	for id := range states {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// writeStates streams the SMN1 encoding of disjoint customer-state maps
// (one per shard, or a Monitor's single map) by merging their sorted id
// lists on the fly — customer states flow straight from the maps to the
// writer, with no merged intermediate map. The partition is disjoint, so
// the merged walk is the global ascending id order: the bytes depend only
// on the logical state, never on the shard count or monitor flavor.
func writeStates(w io.Writer, cfg Config, shardStates []map[retail.CustomerID]*custState) error {
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

// ReadMonitorSnapshot restores a monitor persisted by WriteSnapshot (either
// flavor). The supplied config provides the operational knobs (β, TopJ,
// warm-up, hooks); its grid must match the snapshot's grid, and its model
// options are validated against each restored tracker's.
func ReadMonitorSnapshot(r io.Reader, cfg Config) (*Monitor, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	err = readMonitorStates(r, cfg, func(id retail.CustomerID, st *custState) {
		m.addRestored(id, st.take())
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// readSnapshotWatermark returns what ReadShardedMonitorSnapshot(r, cfg,
// …).Watermark() returns, with the same errors, without building a monitor:
// every customer decodes into one reused state, and only the lowest open
// window is kept. A follow-mode restart needs nothing else from the state.
func readSnapshotWatermark(r io.Reader, cfg Config) (k int, ok bool, err error) {
	err = readMonitorStates(r, cfg, func(_ retail.CustomerID, st *custState) {
		if !ok || st.openK < k {
			k, ok = st.openK, true
		}
	})
	if err != nil {
		return 0, false, err
	}
	return k, ok, nil
}

// readMonitorStates decodes an SMN1 snapshot, validating cfg and every
// embedded tracker along the way, and hands each customer to add as soon as
// its state is complete. Customer ids must ascend strictly, as the writer
// writes them. Every customer decodes into the same scratch state, reusing
// its buffers: add must copy what it keeps, or take it.
func readMonitorStates(r io.Reader, cfg Config, add func(retail.CustomerID, *custState)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("stream: read magic: %w", err)
	}
	if magic != monitorMagic {
		return fmt.Errorf("stream: bad magic %q (not a SMN1 snapshot)", magic[:])
	}
	var f8 [8]byte
	if _, err := io.ReadFull(br, f8[:]); err != nil {
		return fmt.Errorf("stream: read origin: %w", err)
	}
	origin := int64(binary.LittleEndian.Uint64(f8[:]))
	span, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("stream: read span: %w", err)
	}
	if cfg.Grid.Origin().Unix() != origin || uint64(cfg.Grid.Span().Months) != span {
		return fmt.Errorf("stream: snapshot grid (origin %d, span %dmo) does not match config grid (origin %d, span %dmo)",
			origin, span, cfg.Grid.Origin().Unix(), cfg.Grid.Span().Months)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("stream: read customer count: %w", err)
	}
	const maxCustomers = 1 << 34
	if count > maxCustomers {
		return fmt.Errorf("stream: implausible customer count %d", count)
	}
	var st custState
	var prevID uint64
	for i := uint64(0); i < count; i++ {
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("stream: read customer id: %w", err)
		}
		if i > 0 && id <= prevID {
			return fmt.Errorf("stream: customer id %d follows %d (ids must ascend)", id, prevID)
		}
		prevID = id
		openK, err := binary.ReadVarint(br)
		if err != nil {
			return fmt.Errorf("stream: read openK: %w", err)
		}
		lastScoredK, err := binary.ReadVarint(br)
		if err != nil {
			return fmt.Errorf("stream: read lastScoredK: %w", err)
		}
		flags, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("stream: read flags: %w", err)
		}
		// Pre-retention snapshots lack lastActiveK; openK is the
		// conservative restore (the customer gets a full horizon of grace
		// past their open window before eviction, never a premature drop).
		lastActiveK := openK
		if flags&4 != 0 {
			lastActiveK, err = binary.ReadVarint(br)
			if err != nil {
				return fmt.Errorf("stream: read lastActiveK: %w", err)
			}
		}
		if _, err := io.ReadFull(br, f8[:]); err != nil {
			return fmt.Errorf("stream: read lastStability: %w", err)
		}
		pendingCount, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("stream: read pending count: %w", err)
		}
		const maxItems = 1 << 20
		if pendingCount > maxItems {
			return fmt.Errorf("stream: implausible pending size %d", pendingCount)
		}
		pending := st.pending[:0]
		if uint64(cap(pending)) < pendingCount {
			pending = make(retail.Basket, 0, pendingCount)
		}
		pending = pending[:pendingCount]
		prev := uint64(0)
		for j := range pending {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return fmt.Errorf("stream: read pending item: %w", err)
			}
			prev += d
			if prev == 0 || prev > math.MaxUint32 {
				return fmt.Errorf("stream: pending item %d out of range", prev)
			}
			pending[j] = retail.ItemID(prev)
		}
		st = custState{
			lastStability: math.Float64frombits(binary.LittleEndian.Uint64(f8[:])),
			lastScoredK:   int(lastScoredK),
			scored:        flags&2 != 0,
			lastDefined:   flags&1 != 0,
			openK:         int(openK),
			lastActiveK:   int(lastActiveK),
			pending:       pending,
			tracker:       st.tracker,
		}
		opts, err := st.tracker.ReadSnapshot(br)
		if err != nil {
			return fmt.Errorf("stream: customer %d tracker: %w", id, err)
		}
		if opts != cfg.Model {
			return fmt.Errorf("stream: customer %d tracker options %+v do not match config %+v",
				id, opts, cfg.Model)
		}
		add(retail.CustomerID(id), &st)
	}
	return nil
}
