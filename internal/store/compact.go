package store

// Bounded-resource operations on persisted snapshots: windowed receipt
// eviction, STB1 segment-chain compaction, and a polling follower that
// tails a growing snapshot file. These are the store half of the
// always-on story; the monitor half (retention horizon, idle-customer
// eviction) lives in internal/stream.

import (
	"bytes"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	iofs "io/fs"
	"sort"
	"time"

	"github.com/gautrais/stability/internal/faultfs"
	"github.com/gautrais/stability/internal/retail"
)

// EvictBefore returns a store without the receipts timestamped before
// cutoff; customers left with no receipts are dropped entirely. Surviving
// receipt slices alias s (the store is immutable, so sharing is safe).
// WriteBinary of the result is byte-identical to a from-scratch build of
// the surviving receipts: eviction only removes chronological prefixes,
// so order and encoding are unchanged.
func (s *Store) EvictBefore(cutoff time.Time) *Store {
	histories := make([]retail.History, 0, len(s.histories))
	for _, h := range s.histories {
		rs := h.Receipts
		lo := sort.Search(len(rs), func(i int) bool { return !rs[i].Time.Before(cutoff) })
		if lo == len(rs) {
			continue
		}
		histories = append(histories, retail.History{Customer: h.Customer, Receipts: rs[lo:]})
	}
	return assemble(histories)
}

// CompactStats reports what one CompactFile call did.
type CompactStats struct {
	SegmentsBefore  int   // STB1 segments in the chain before (after: always 1)
	BytesBefore     int64 // file size before
	BytesAfter      int64 // file size after
	CustomersBefore int
	CustomersAfter  int // smaller only when a cutoff evicted whole customers
	ReceiptsBefore  int
	ReceiptsAfter   int
}

// CompactFile rewrites the STB1 segment chain at path as a single segment,
// evicting receipts before cutoff first (a zero cutoff keeps everything).
// The output is byte-identical to WriteBinary of the surviving receipts.
//
// The rewrite is crash-safe: the new bytes go to path+".tmp", are fsync'd,
// and renamed over path. A crash at any point leaves either the old chain
// or the new single segment on disk — never a mix, never a partial file at
// path. A leftover .tmp from a crashed run is overwritten by the next one.
func CompactFile(fsys faultfs.FS, path string, cutoff time.Time) (CompactStats, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	f, err := fsys.Open(path)
	if err != nil {
		return CompactStats{}, err
	}
	data, readErr := io.ReadAll(f)
	cerr := f.Close()
	s, segments, err := decodeChain(data, readErr)
	if err == nil {
		err = cerr
	}
	if err != nil {
		return CompactStats{}, fmt.Errorf("store: compact %s: %w", path, err)
	}
	info, err := fsys.Stat(path)
	if err != nil {
		return CompactStats{}, err
	}
	stats := CompactStats{
		SegmentsBefore:  segments,
		BytesBefore:     info.Size(),
		CustomersBefore: s.NumCustomers(),
		ReceiptsBefore:  s.NumReceipts(),
	}
	if !cutoff.IsZero() {
		s = s.EvictBefore(cutoff)
	}
	stats.CustomersAfter = s.NumCustomers()
	stats.ReceiptsAfter = s.NumReceipts()

	if err := faultfs.WriteAtomic(fsys, path, s.WriteBinary); err != nil {
		return stats, fmt.Errorf("store: compact %s: %w", path, err)
	}
	info, err = fsys.Stat(path)
	if err != nil {
		return stats, err
	}
	stats.BytesAfter = info.Size()
	return stats, nil
}

// ErrFileShrank is returned by Follower.Poll when the followed file got
// smaller: it was compacted or replaced out from under the follower, so
// its byte offset no longer means anything. The caller must resynchronize
// (typically: rebuild from the whole file) rather than keep polling.
var ErrFileShrank = errors.New("store: followed file shrank (compacted or replaced)")

// Follower tails a growing STB1 segment chain by polling — stat for a size
// change, then decode the bytes past the last complete segment boundary.
// No inotify: polling is portable and the snapshot cadence is seconds, not
// microseconds.
//
// A torn tail (the writer caught mid-append, or a writer that crashed
// mid-append) decodes as a premature EOF and is retried from the same
// boundary on the next poll; varints and fixed-width fields can only
// shrink under truncation, never decode to different valid values, so a
// partial segment is always detected. Only a malformed segment — bad
// magic, corrupt counts — is a hard error. A crashed writer's permanently
// torn tail is indistinguishable from an in-progress append, so the
// follower retries it forever; if the writer later appends a fresh segment
// after the torn bytes, decoding fails loudly instead of skipping data.
type Follower struct {
	fsys     faultfs.FS
	path     string
	offset   int64 // bytes consumed; always a complete-segment boundary
	segments int   // complete segments consumed
	// sum is the running FNV-64a of every consumed byte. An append-only
	// writer never changes bytes before offset, so when the boundary stops
	// decoding the prefix hash discriminates: unchanged prefix = the
	// writer appended garbage (hard error), changed prefix = the file was
	// rewritten underneath us (ErrFileShrank) — which a compaction that
	// regrows past our offset before the next poll would otherwise
	// masquerade as corruption.
	sum hash.Hash64
}

// NewFollower returns a follower positioned at the start of path. The file
// need not exist yet: polls report nothing until it appears.
func NewFollower(fsys faultfs.FS, path string) *Follower {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	return &Follower{fsys: fsys, path: path, sum: fnv.New64a()}
}

// Offset reports the byte offset of the last complete segment boundary.
func (f *Follower) Offset() int64 { return f.offset }

// Segments reports how many complete segments have been consumed.
func (f *Follower) Segments() int { return f.segments }

// Poll decodes any segments appended since the last call and returns a
// store holding just those receipts, or (nil, nil) when no complete new
// segment has landed. Errors other than ErrFileShrank are transient
// (stat/open/read) or permanent corruption; both leave the follower at its
// last good boundary.
func (f *Follower) Poll() (*Store, error) {
	info, err := f.fsys.Stat(f.path)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	switch size := info.Size(); {
	case size == f.offset:
		return nil, nil
	case size < f.offset:
		return nil, fmt.Errorf("%w: %s is %d bytes, follower at %d", ErrFileShrank, f.path, size, f.offset)
	}
	file, err := f.fsys.Open(f.path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	if _, err := file.Seek(f.offset, io.SeekStart); err != nil {
		return nil, err
	}
	// The stat size bounds the read buffer up front (a file that grew
	// since just reads on), so no doubling copies of the tail are made.
	buf := bytes.NewBuffer(make([]byte, 0, info.Size()-f.offset+bytes.MinRead))
	if _, err := buf.ReadFrom(file); err != nil {
		return nil, err
	}
	data := buf.Bytes()

	// Validate segment by segment, so a torn trailing segment never
	// contaminates the complete ones before it; only the complete ones are
	// decoded.
	d := decoder{b: data}
	end, newSegs := 0, 0
	for d.i < len(data) {
		if err := d.segment(f.segments+newSegs == 0); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break // torn tail: retry from this boundary next poll
			}
			if newSegs > 0 {
				// Deliver the complete segments before the corruption; the
				// offset now sits at the bad boundary, so the next poll
				// reports the hard error without losing these receipts.
				break
			}
			if rewritten, rerr := f.prefixChanged(); rerr == nil && rewritten {
				return nil, fmt.Errorf("%w: %s rewritten under follower at byte %d", ErrFileShrank, f.path, f.offset)
			}
			return nil, fmt.Errorf("store: follow %s at byte %d: %w", f.path, f.offset, err)
		}
		end = d.i
		newSegs++
	}
	if newSegs == 0 {
		return nil, nil
	}
	f.sum.Write(data[:end])
	f.offset += int64(end)
	f.segments += newSegs
	return d.fill(), nil
}

// prefixChanged re-reads the consumed prefix and reports whether its bytes
// differ from what the follower already decoded — the discriminator
// between an appended bad segment (prefix intact: corruption) and a file
// rewritten underneath the follower after it regrew past the old offset
// (prefix changed: resync like ErrFileShrank).
func (f *Follower) prefixChanged() (bool, error) {
	file, err := f.fsys.Open(f.path)
	if err != nil {
		return false, err
	}
	defer file.Close()
	h := fnv.New64a()
	n, err := io.CopyN(h, file, f.offset)
	if err != nil || n < f.offset {
		// The file shrank again between reads; either way the prefix the
		// follower consumed is gone.
		return true, nil
	}
	return h.Sum64() != f.sum.Sum64(), nil
}
