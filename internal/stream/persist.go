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

// appendHeader appends the SMN1 header (magic, grid, customer count).
func appendHeader(b []byte, grid window.Grid, customers int) []byte {
	b = append(b, monitorMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(grid.Origin().Unix()))
	b = binary.AppendUvarint(b, uint64(grid.Span().Months))
	return binary.AppendUvarint(b, uint64(customers))
}

// appendState appends one customer's state, including the embedded tracker
// snapshot; model is the monitor's tracker options.
func appendState(b []byte, id retail.CustomerID, st *custState, model core.Options) []byte {
	b = binary.AppendUvarint(b, uint64(id))
	b = binary.AppendVarint(b, int64(st.openK))
	b = binary.AppendVarint(b, int64(st.lastScoredK))
	flags := byte(4) // bit2: lastActiveK always written since the retention horizon landed
	if st.lastDefined {
		flags |= 1
	}
	if st.scored {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(st.lastActiveK))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(st.lastStability))
	b = binary.AppendUvarint(b, uint64(len(st.pending)))
	prev := uint64(0)
	for _, it := range st.pending {
		b = binary.AppendUvarint(b, uint64(it)-prev)
		prev = uint64(it)
	}
	return st.tracker.AppendSnapshot(b, model)
}

// snapshotChunk is how many encoded bytes writeStates collects before it
// hands them to the writer; the customer that passes it ends the chunk.
const snapshotChunk = 32 << 10

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
// lists on the fly — customer states flow straight from the maps into one
// append buffer, with no merged intermediate map, and the buffer goes to w
// each time it holds snapshotChunk bytes, so a snapshot of any size
// streams through a buffer bounded by snapshotChunk plus one customer. The
// partition is disjoint, so the merged walk is the global ascending id
// order: the bytes depend only on the logical state, never on the shard
// count or monitor flavor. The first write error ends the writing.
func writeStates(w io.Writer, cfg Config, shardStates []map[retail.CustomerID]*custState) error {
	total := 0
	heads := make([][]retail.CustomerID, len(shardStates))
	for i, states := range shardStates {
		total += len(states)
		heads[i] = sortedStateIDs(states)
	}
	// The headroom takes the customer that passes snapshotChunk, unless
	// their repertoire is unusually large.
	buf := appendHeader(make([]byte, 0, snapshotChunk+4<<10), cfg.Grid, total)
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
		if len(buf) >= snapshotChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		id := heads[best][0]
		heads[best] = heads[best][1:]
		buf = appendState(buf, id, shardStates[best][id], cfg.Model)
	}
	_, err := w.Write(buf)
	return err
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
