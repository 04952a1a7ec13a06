package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/base"
	"repro/internal/block"
	"repro/internal/bloom"
	"repro/internal/vfs"
)

// WriterOptions configure table construction.
type WriterOptions struct {
	// BlockSize is the target uncompressed page size in bytes.
	// Default 4096.
	BlockSize int
	// RestartInterval is the block restart-point interval.
	RestartInterval int
	// BloomBitsPerKey sizes the table's Bloom filter. Zero disables the
	// filter; 10 is the conventional default.
	BloomBitsPerKey int
	// PrefixBloomLength, when positive, adds a second Bloom filter indexing
	// every key prefix of length 1..PrefixBloomLength, letting prefix scans
	// skip the table without opening it. Zero disables it. The filter is
	// sized by BloomBitsPerKey (10 if that is unset).
	PrefixBloomLength int
	// PagesPerTile selects the storage layout: 1 produces a standard
	// globally sorted table; >1 produces the KiWi key-weaving layout with
	// that many delete-key-ordered pages per tile. Default 1.
	PagesPerTile int
	// DeleteKeyFunc extracts the secondary delete key from a SET entry's
	// value. Required when PagesPerTile > 1; optional otherwise (it
	// enables delete-key statistics that let later KiWi compactions drop
	// pages).
	DeleteKeyFunc base.DeleteKeyExtractor
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = 4096
	}
	if o.RestartInterval <= 0 {
		o.RestartInterval = block.DefaultRestartInterval
	}
	if o.PagesPerTile <= 0 {
		o.PagesPerTile = 1
	}
	return o
}

// WriterMeta summarizes a finished table for the manifest.
type WriterMeta struct {
	// Smallest and Largest bound the internal keys in the table.
	Smallest base.InternalKey
	Largest  base.InternalKey
	// Size is the final file size in bytes.
	Size uint64
	// Props are the table's properties, also persisted in the file.
	Props Properties
	// RangeTombstones are the table's range tombstones, in file order.
	RangeTombstones []base.RangeTombstone
}

// HasEntries reports whether any entry or range tombstone was added.
func (m WriterMeta) HasEntries() bool {
	return m.Props.NumEntries > 0 || m.Props.NumRangeDeletes > 0
}

type bufferedEntry struct {
	ikey  base.InternalKey
	value []byte
	dk    base.DeleteKey
	hasDK bool
}

// Writer builds an sstable. Entries must be added in ascending internal-key
// order. Writer is not safe for concurrent use.type
type Writer struct {
	f    vfs.File
	opts WriterOptions

	offset  uint64
	dataBuf *block.Writer
	index   *block.Writer

	// tile accumulates entries for the current delete tile (KiWi mode).
	tile      []bufferedEntry
	tileBytes int
	tileID    uint64

	hashes       []uint64
	prefixHashes []uint64
	rangeDels    []base.RangeTombstone

	meta        WriterMeta
	haveTomb    bool
	haveDK      bool
	first       bool
	lastAdded   base.InternalKey
	encodedKey  []byte
	finishedErr error
	finished    bool
}

// NewWriter begins writing a table to f.
func NewWriter(f vfs.File, opts WriterOptions) *Writer {
	opts = opts.withDefaults()
	return &Writer{
		f:       f,
		opts:    opts,
		dataBuf: block.NewWriter(opts.RestartInterval),
		index:   block.NewWriter(1),
		first:   true,
	}
}

// Add appends an entry. Keys must arrive in strictly ascending internal-key
// order; out-of-order keys are rejected.
func (w *Writer) Add(ikey base.InternalKey, value []byte) error {
	if w.finished {
		return errors.New("sstable: Add after Finish")
	}
	if !w.first && ikey.Compare(w.lastAdded) <= 0 {
		return fmt.Errorf("sstable: keys out of order: %s after %s", ikey, w.lastAdded)
	}
	if !w.first && base.Compare(ikey.UserKey, w.lastAdded.UserKey) == 0 {
		w.meta.Props.HasDuplicates = true
	}
	if w.opts.PrefixBloomLength > 0 {
		// Keys arrive sorted, so every prefix shared with the previous key
		// is already hashed; only the suffix past the common prefix is new.
		skip := 0
		if !w.first {
			skip = sharedPrefixLen(w.lastAdded.UserKey, ikey.UserKey)
		}
		w.prefixHashes = bloom.AppendPrefixHashes(w.prefixHashes, ikey.UserKey, skip, w.opts.PrefixBloomLength)
	}
	if w.first {
		w.meta.Smallest = ikey.Clone()
		w.first = false
	}
	w.lastAdded = ikey.Clone()

	e := bufferedEntry{ikey: w.lastAdded, value: append([]byte(nil), value...)}
	if ikey.Kind() == base.KindSet && w.opts.DeleteKeyFunc != nil {
		e.dk = w.opts.DeleteKeyFunc(value)
		e.hasDK = true
		if !w.haveDK || e.dk < w.meta.Props.DeleteKeyMin {
			w.meta.Props.DeleteKeyMin = e.dk
		}
		if !w.haveDK || e.dk > w.meta.Props.DeleteKeyMax {
			w.meta.Props.DeleteKeyMax = e.dk
		}
		w.haveDK = true
	}
	if ikey.Kind() == base.KindDelete {
		ts := base.DecodeTombstoneValue(value)
		w.noteTombstone(ts)
		w.meta.Props.NumDeletes++
	}
	w.meta.Props.NumEntries++
	w.meta.Props.RawKeyBytes += uint64(ikey.Size())
	w.meta.Props.RawValueBytes += uint64(len(value))
	if s := ikey.SeqNum(); s > w.meta.Props.MaxSeqNum {
		w.meta.Props.MaxSeqNum = s
	}
	if s := ikey.SeqNum(); w.meta.Props.NumEntries == 1 || s < w.meta.Props.MinSeqNum {
		w.meta.Props.MinSeqNum = s
	}
	if w.opts.BloomBitsPerKey > 0 {
		w.hashes = append(w.hashes, bloom.Hash(ikey.UserKey))
	}

	w.tile = append(w.tile, e)
	w.tileBytes += ikey.Size() + len(value) + 8
	if w.tileBytes >= w.opts.BlockSize*w.opts.PagesPerTile {
		return w.flushTile()
	}
	return nil
}

// AddRangeTombstone records a secondary-key range tombstone in the table's
// range-tombstone block.
func (w *Writer) AddRangeTombstone(rt base.RangeTombstone) error {
	if w.finished {
		return errors.New("sstable: AddRangeTombstone after Finish")
	}
	w.rangeDels = append(w.rangeDels, rt)
	w.meta.Props.NumRangeDeletes++
	w.noteTombstone(rt.CreatedAt)
	if rt.Seq > w.meta.Props.MaxSeqNum {
		w.meta.Props.MaxSeqNum = rt.Seq
	}
	return nil
}

// sharedPrefixLen returns the length of the longest common prefix of a and b.
func sharedPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

func (w *Writer) noteTombstone(ts base.Timestamp) {
	if !w.haveTomb || ts < w.meta.Props.OldestTombstone {
		w.meta.Props.OldestTombstone = ts
	}
	w.haveTomb = true
}

// flushTile writes the buffered entries as one delete tile: pages ordered by
// delete key inside the tile, entries sorted by internal key inside each
// page. With PagesPerTile == 1 this degenerates to a standard data block.
func (w *Writer) flushTile() error {
	if len(w.tile) == 0 {
		return nil
	}
	// The tile's index separator is its largest internal key; every page
	// of the tile shares it so sort-key binary search lands on the tile.
	sep := w.tile[len(w.tile)-1].ikey

	pages := w.opts.PagesPerTile
	if pages > len(w.tile) {
		pages = len(w.tile)
	}
	if pages > 1 {
		// Order entries by delete key so each page covers a narrow
		// delete-key band. Entries without a delete key (tombstones)
		// sort first; ties broken by internal key for determinism.
		sort.SliceStable(w.tile, func(i, j int) bool {
			a, b := &w.tile[i], &w.tile[j]
			if a.hasDK != b.hasDK {
				return !a.hasDK
			}
			if a.dk != b.dk {
				return a.dk < b.dk
			}
			return a.ikey.Compare(b.ikey) < 0
		})
	}
	per := (len(w.tile) + pages - 1) / pages
	for start := 0; start < len(w.tile); start += per {
		end := start + per
		if end > len(w.tile) {
			end = len(w.tile)
		}
		page := w.tile[start:end]
		if pages > 1 {
			sort.Slice(page, func(i, j int) bool { return page[i].ikey.Compare(page[j].ikey) < 0 })
		}
		if err := w.writePage(page, sep); err != nil {
			return err
		}
	}
	w.tile = w.tile[:0]
	w.tileBytes = 0
	w.tileID++
	w.meta.Props.NumTiles++
	return nil
}

// writePage emits one data block and its index entry.
func (w *Writer) writePage(page []bufferedEntry, sep base.InternalKey) error {
	w.dataBuf.Reset()
	var (
		dkMin  base.DeleteKey = ^base.DeleteKey(0)
		dkMax  base.DeleteKey
		hasDK  bool
		hasDel bool
		maxSeq base.SeqNum
	)
	for i := range page {
		e := &page[i]
		w.encodedKey = e.ikey.Encode(w.encodedKey[:0])
		w.dataBuf.Add(w.encodedKey, e.value)
		if e.hasDK {
			hasDK = true
			if e.dk < dkMin {
				dkMin = e.dk
			}
			if e.dk > dkMax {
				dkMax = e.dk
			}
		}
		if e.ikey.Kind() == base.KindDelete {
			hasDel = true
		}
		if s := e.ikey.SeqNum(); s > maxSeq {
			maxSeq = s
		}
	}
	h, err := w.writeBlock(w.dataBuf.Finish())
	if err != nil {
		return err
	}
	ent := indexEntry{handle: h, tile: w.tileID, maxSeq: maxSeq}
	if hasDK {
		ent.dkMin, ent.dkMax = dkMin, dkMax
	} else {
		ent.dkMin, ent.dkMax = 1, 0 // empty span: never droppable
	}
	if hasDel {
		ent.flags |= pageFlagHasTombstones
	}
	w.encodedKey = sep.Encode(w.encodedKey[:0])
	w.index.Add(w.encodedKey, encodeIndexEntry(nil, ent))
	w.meta.Props.NumPages++
	return nil
}

// writeBlock writes raw block bytes plus a CRC trailer and returns the
// handle.
func (w *Writer) writeBlock(data []byte) (BlockHandle, error) {
	h := BlockHandle{Offset: w.offset, Length: uint64(len(data))}
	if _, err := w.f.Write(data); err != nil {
		return BlockHandle{}, err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(data, castagnoli))
	if _, err := w.f.Write(crc[:]); err != nil {
		return BlockHandle{}, err
	}
	w.offset += uint64(len(data)) + 4
	return h, nil
}

// Finish flushes all buffered state, writes the metadata blocks and footer,
// syncs the file, and returns the table's metadata. The writer must not be
// used afterwards.
func (w *Writer) Finish() (WriterMeta, error) {
	if w.finished {
		return w.meta, w.finishedErr
	}
	w.finished = true
	err := w.finish()
	w.finishedErr = err
	return w.meta, err
}

func (w *Writer) finish() error {
	if err := w.flushTile(); err != nil {
		return err
	}
	if !w.first {
		w.meta.Largest = w.lastAdded
	}

	var ftr footer

	// Bloom filter block.
	if w.opts.BloomBitsPerKey > 0 && len(w.hashes) > 0 {
		filter := bloom.Build(w.hashes, w.opts.BloomBitsPerKey)
		h, err := w.writeBlock(filter.Encode(nil))
		if err != nil {
			return err
		}
		ftr.filter = h
	}

	// Prefix Bloom filter block. Its handle lives in the properties block
	// (optional trailing fields), so it must be written before properties.
	if w.opts.PrefixBloomLength > 0 && len(w.prefixHashes) > 0 {
		bpk := w.opts.BloomBitsPerKey
		if bpk <= 0 {
			bpk = 10
		}
		filter := bloom.Build(w.prefixHashes, bpk)
		h, err := w.writeBlock(filter.Encode(nil))
		if err != nil {
			return err
		}
		w.meta.Props.PrefixFilter = h
		w.meta.Props.PrefixBloomMaxLen = uint64(w.opts.PrefixBloomLength)
	}

	// Range-tombstone block.
	if len(w.rangeDels) > 0 {
		sort.Slice(w.rangeDels, func(i, j int) bool {
			if w.rangeDels[i].Lo != w.rangeDels[j].Lo {
				return w.rangeDels[i].Lo < w.rangeDels[j].Lo
			}
			return w.rangeDels[i].Seq > w.rangeDels[j].Seq
		})
		var buf []byte
		for _, rt := range w.rangeDels {
			buf = base.EncodeRangeTombstone(buf, rt)
		}
		h, err := w.writeBlock(buf)
		if err != nil {
			return err
		}
		ftr.rangeDel = h
		w.meta.RangeTombstones = w.rangeDels
	}

	// Properties block.
	h, err := w.writeBlock(encodeProperties(nil, &w.meta.Props))
	if err != nil {
		return err
	}
	ftr.props = h

	// Index block. An empty table's index has one restart point and zero
	// entries, which the block reader handles uniformly.
	h, err = w.writeBlock(w.index.Finish())
	if err != nil {
		return err
	}
	ftr.index = h

	if _, err := w.f.Write(ftr.encode()); err != nil {
		return err
	}
	w.offset += FooterSize
	w.meta.Size = w.offset
	if err := w.f.Sync(); err != nil {
		return err
	}
	return w.f.Close()
}
