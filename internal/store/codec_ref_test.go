package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/gautrais/stability/internal/retail"
)

// The Builder-based STB1 codec: the byte-at-a-time decoder that adds each
// receipt to a Builder, the follower poll built on it, and the bufio
// encoder. The package codec replaced them; they stay here as the
// differential reference its tests and FuzzDecodeSTB1 compare against.

// refReadBinary is ReadBinary through the reference decoder.
func refReadBinary(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	b := NewBuilder()
	if err := refReadSegment(br, b, true); err != nil {
		return nil, err
	}
	for {
		if _, err := br.Peek(1); err == io.EOF {
			break
		}
		if err := refReadSegment(br, b, false); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// segmentReader is what refReadSegment reads from.
type segmentReader interface {
	io.Reader
	io.ByteReader
}

// refReadSegment decodes one STB1 segment into the builder. first
// distinguishes the error message for a file that isn't a snapshot at all
// from one with a corrupt appended segment.
func refReadSegment(br segmentReader, b *Builder, first bool) error {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("store: read magic: %w", err)
	}
	if magic != binaryMagic {
		if first {
			return fmt.Errorf("store: bad magic %q (not a STB1 snapshot)", magic[:])
		}
		return fmt.Errorf("store: bad magic %q in appended segment", magic[:])
	}
	customers, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("store: read customer count: %w", err)
	}
	const maxCustomers = 1 << 34
	if customers > maxCustomers {
		return fmt.Errorf("store: implausible customer count %d", customers)
	}
	var spendBuf [8]byte
	for c := uint64(0); c < customers; c++ {
		cust, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("store: read customer id: %w", err)
		}
		receipts, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("store: read receipt count: %w", err)
		}
		prev := int64(0)
		for i := uint64(0); i < receipts; i++ {
			dt, err := binary.ReadVarint(br)
			if err != nil {
				return fmt.Errorf("store: read time delta: %w", err)
			}
			prev += dt
			if _, err := io.ReadFull(br, spendBuf[:]); err != nil {
				return fmt.Errorf("store: read spend: %w", err)
			}
			spend := math.Float64frombits(binary.LittleEndian.Uint64(spendBuf[:]))
			itemCount, err := binary.ReadUvarint(br)
			if err != nil {
				return fmt.Errorf("store: read item count: %w", err)
			}
			const maxItems = 1 << 20
			if itemCount > maxItems {
				return fmt.Errorf("store: implausible basket size %d", itemCount)
			}
			items := make(retail.Basket, itemCount)
			prevItem := uint64(0)
			for j := range items {
				d, err := binary.ReadUvarint(br)
				if err != nil {
					return fmt.Errorf("store: read item: %w", err)
				}
				prevItem += d
				if prevItem == 0 || prevItem > math.MaxUint32 {
					return fmt.Errorf("store: item id %d out of range", prevItem)
				}
				items[j] = retail.ItemID(prevItem)
			}
			rec := retail.Receipt{Time: time.Unix(prev, 0).UTC(), Items: items, Spend: spend}
			if err := b.AddReceipt(retail.CustomerID(cust), rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// refPoll is Follower.Poll through the reference decoder: each segment
// into a fresh builder, merged into an aggregate one.
func refPoll(f *Follower) (*Store, error) {
	info, err := f.fsys.Stat(f.path)
	if err != nil {
		return nil, nil // the fuzzed files always exist
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
	data, err := io.ReadAll(file)
	if err != nil {
		return nil, err
	}
	agg := NewBuilder()
	br := bytes.NewReader(data)
	base := f.offset
	newSegs := 0
	for br.Len() > 0 {
		segStart := int64(len(data)) - int64(br.Len())
		seg := NewBuilder()
		if err := refReadSegment(br, seg, f.segments+newSegs == 0); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break
			}
			if newSegs > 0 {
				break
			}
			if rewritten, rerr := f.prefixChanged(); rerr == nil && rewritten {
				return nil, fmt.Errorf("%w: %s rewritten under follower at byte %d", ErrFileShrank, f.path, base+segStart)
			}
			return nil, fmt.Errorf("store: follow %s at byte %d: %w", f.path, base+segStart, err)
		}
		agg.Merge(seg)
		consumed := int64(len(data)) - int64(br.Len())
		f.sum.Write(data[segStart:consumed])
		f.offset = base + consumed
		f.segments++
		newSegs++
	}
	if newSegs == 0 {
		return nil, nil
	}
	return agg.Build(), nil
}

// refWriteBinary is WriteBinary through the reference encoder: one
// bufio.Writer call per field.
func refWriteBinary(w io.Writer, s *Store) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		bw.Write(buf[:n])
	}
	putUvarint(uint64(len(s.histories)))
	for _, h := range s.histories {
		putUvarint(uint64(h.Customer))
		putUvarint(uint64(len(h.Receipts)))
		prev := int64(0)
		for _, r := range h.Receipts {
			ts := r.Time.Unix()
			n := binary.PutVarint(buf[:], ts-prev)
			bw.Write(buf[:n])
			prev = ts
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(r.Spend))
			bw.Write(buf[:8])
			putUvarint(uint64(len(r.Items)))
			prevItem := uint64(0)
			for _, it := range r.Items {
				putUvarint(uint64(it) - prevItem)
				prevItem = uint64(it)
			}
		}
	}
	return bw.Flush()
}
