package sstable

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
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
	// BloomBitsPerKey sizes the table's Bloom filters: one over the whole
	// table in the standard layout, one per page in KiWi's. Zero disables
	// them; 10 is the conventional default.
	BloomBitsPerKey int
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

// tileEntry addresses one buffered entry of the current KiWi tile: its encoded
// internal key, then its value, back to back in Writer.arena.
type tileEntry struct {
	off    int // start of the encoded internal key
	keyLen int // encoded length, trailer included
	valLen int
	dk     base.DeleteKey
	hasDK  bool
	hash   uint64 // bloom.Hash of the user key, for its page's filter
}

func (e tileEntry) key(arena []byte) []byte   { return arena[e.off : e.off+e.keyLen] }
func (e tileEntry) value(arena []byte) []byte { return arena[e.off+e.keyLen:][:e.valLen] }

// pageStats gathers, entry by entry, what a page's index entry records.
type pageStats struct {
	dkMin, dkMax base.DeleteKey
	hasDK        bool
	hasDel       bool
	maxSeq       base.SeqNum
}

func (p *pageStats) note(tr base.Trailer, dk base.DeleteKey, hasDK bool) {
	if hasDK {
		if !p.hasDK || dk < p.dkMin {
			p.dkMin = dk
		}
		if !p.hasDK || dk > p.dkMax {
			p.dkMax = dk
		}
		p.hasDK = true
	}
	if tr.Kind() == base.KindDelete {
		p.hasDel = true
	}
	if s := tr.SeqNum(); s > p.maxSeq {
		p.maxSeq = s
	}
}

// Writer builds an sstable. Entries must be added in ascending internal-key
// order. Writer is not safe for concurrent use.
//
// Add copies: with one page per tile the entry is encoded straight into the
// data block being built, with more the tile is buffered in one byte arena and
// woven into pages when it fills. Nothing is allocated per entry, and every
// buffer survives Reset, so a job that writes many tables sizes them once.
type Writer struct {
	f    vfs.File
	opts WriterOptions

	offset  uint64
	dataBuf *block.Writer
	index   *block.Writer

	// page describes the data block being built in dataBuf.
	page pageStats
	// arena and tile buffer the current delete tile (KiWi mode).
	arena []byte
	tile  []tileEntry
	// The rest is weaveTile's scratch: pageOf is indexed like tile, order
	// holds the tile's arrivals grouped by page, packed and byBucket the
	// packed ranking keys, counts the histogram and then the page cursors.
	pageOf   []int32
	order    []int32
	packed   []uint64
	byBucket []uint64
	counts   []int32
	// sortedTiles counts the tiles whose delete-key span left too few bits
	// to pack, which rankSorted ranked instead.
	sortedTiles int
	// tileBytes is the payload added to the current tile so far.
	tileBytes int
	tileID    uint64

	// hashes feed the file filter (standard layout), pageHashes the filter
	// of the page being woven (KiWi layout).
	hashes     []uint64
	pageHashes []uint64
	rangeDels  []base.RangeTombstone

	meta     WriterMeta
	haveTomb bool
	haveDK   bool
	first    bool
	// lastAdded is the last key added; its user key aliases lastEnc, the
	// same key encoded, which the next Add overwrites.
	lastAdded   base.InternalKey
	lastEnc     []byte
	scratch     []byte // index values, then the file filter
	finishedErr error
	finished    bool
}

// NewWriter begins writing a table to f.
func NewWriter(f vfs.File, opts WriterOptions) *Writer {
	opts = opts.withDefaults()
	w := &Writer{
		opts:    opts,
		dataBuf: block.NewWriter(block.DefaultRestartInterval),
		index:   block.NewWriter(1),
	}
	w.Reset(f)
	return w
}

// Reset re-targets the writer at a new, empty file, as if freshly made by
// NewWriter with the same options, keeping its buffers. The table written
// before, if any, is finished or abandoned.
func (w *Writer) Reset(f vfs.File) {
	w.dataBuf.Reset()
	w.index.Reset()
	// Everything per-table starts from zero; only the buffers carry over.
	// rangeDels does not: the finished table's WriterMeta holds that slice.
	*w = Writer{
		f: f, opts: w.opts, dataBuf: w.dataBuf, index: w.index, first: true,
		arena: w.arena[:0], tile: w.tile[:0],
		pageOf: w.pageOf, order: w.order, packed: w.packed, byBucket: w.byBucket, counts: w.counts,
		hashes: w.hashes[:0], pageHashes: w.pageHashes[:0],
		lastEnc: w.lastEnc, scratch: w.scratch,
	}
}

// Add appends an entry. Keys must arrive in strictly ascending internal-key
// order; out-of-order keys are rejected. Add has copied ikey.UserKey and
// value by the time it returns: the caller may overwrite both (a flush passes
// slices of the memtable arena, a compaction slices of a handoff batch that
// goes back to its pool once written).
func (w *Writer) Add(ikey base.InternalKey, value []byte) error {
	if w.finished {
		return errors.New("sstable: Add after Finish")
	}
	if !w.first {
		c := base.Compare(ikey.UserKey, w.lastAdded.UserKey)
		if c < 0 || (c == 0 && ikey.Trailer >= w.lastAdded.Trailer) {
			return fmt.Errorf("sstable: keys out of order: %s after %s", ikey, w.lastAdded)
		}
		if c == 0 {
			w.meta.Props.HasDuplicates = true
		}
	}
	if w.first {
		w.meta.Smallest = ikey.Clone()
		w.first = false
	}
	w.lastEnc = ikey.Encode(w.lastEnc[:0])
	w.lastAdded = base.InternalKey{UserKey: w.lastEnc[:len(ikey.UserKey)], Trailer: ikey.Trailer}

	var dk base.DeleteKey
	hasDK := ikey.Kind() == base.KindSet && w.opts.DeleteKeyFunc != nil
	if hasDK {
		dk = w.opts.DeleteKeyFunc(value)
		if !w.haveDK || dk < w.meta.Props.DeleteKeyMin {
			w.meta.Props.DeleteKeyMin = dk
		}
		if !w.haveDK || dk > w.meta.Props.DeleteKeyMax {
			w.meta.Props.DeleteKeyMax = dk
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
	var hash uint64
	if w.opts.BloomBitsPerKey > 0 {
		hash = bloom.Hash(ikey.UserKey)
		if w.opts.PagesPerTile == 1 {
			w.hashes = append(w.hashes, hash)
		}
	}

	if w.opts.PagesPerTile == 1 {
		w.dataBuf.Add(w.lastEnc, value)
		w.page.note(ikey.Trailer, dk, hasDK)
	} else {
		w.tile = append(w.tile, tileEntry{off: len(w.arena), keyLen: len(w.lastEnc), valLen: len(value), dk: dk, hasDK: hasDK, hash: hash})
		w.arena = append(append(w.arena, w.lastEnc...), value...)
	}
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

func (w *Writer) noteTombstone(ts base.Timestamp) {
	if !w.haveTomb || ts < w.meta.Props.OldestTombstone {
		w.meta.Props.OldestTombstone = ts
	}
	w.haveTomb = true
}

// flushTile closes the current delete tile. Every page of a tile shares one
// index separator, the tile's largest internal key — the last key added — so
// sort-key binary search lands on the tile. With one page per tile the page is
// already in dataBuf; otherwise the buffered entries are woven: pages ordered
// by delete key inside the tile, entries sorted by internal key inside each
// page.
func (w *Writer) flushTile() error {
	if w.tileBytes == 0 {
		return nil
	}
	var err error
	if w.opts.PagesPerTile == 1 {
		err = w.writePage(nil)
	} else {
		err = w.weaveTile()
	}
	if err != nil {
		return err
	}
	w.tileBytes = 0
	w.tileID++
	w.meta.Props.NumTiles++
	return nil
}

// weaveTile writes the buffered tile as its delete-key-ordered pages.
//
// Add rejects out-of-order keys, so an entry's index in w.tile is its rank in
// internal-key order, and the weave compares integers, never keys. Entries are
// ranked by delete key — those without one (tombstones) first, ties broken by
// arrival, which is the internal-key order — and rank r goes to page r / per
// (rankPacked, else rankSorted). Each page then goes out in arrival order,
// which sorts it by internal key: a counting sort by page, stable, groups the
// arrivals into order. With filters on, the page's entry hashes are gathered
// on the way for its filter.
func (w *Writer) weaveTile() error {
	n := len(w.tile)
	pages := min(w.opts.PagesPerTile, n)
	per := (n + pages - 1) / pages
	// pageOf[i] is the page of the i-th entry to arrive.
	pageOf := slices.Grow(w.pageOf[:0], n)[:n]
	w.pageOf = pageOf
	if pages == 1 {
		clear(pageOf)
	} else if !w.rankPacked(per) {
		w.rankSorted(per)
	}
	// Page p holds ranks [p*per, (p+1)*per), so its arrivals start at p*per
	// in order; counts serves as the pages' cursors.
	cursor := slices.Grow(w.counts[:0], pages)[:pages]
	for p := range cursor {
		cursor[p] = int32(p * per)
	}
	order := slices.Grow(w.order[:0], n)[:n]
	for i, p := range pageOf {
		order[cursor[p]] = int32(i)
		cursor[p]++
	}
	w.counts, w.order = cursor, order
	for start := 0; start < n; start += per {
		hashes := w.pageHashes[:0]
		for _, i := range order[start:min(start+per, n)] {
			e := &w.tile[i]
			key := e.key(w.arena)
			w.dataBuf.Add(key, e.value(w.arena))
			w.page.note(base.DecodeInternalKey(key).Trailer, e.dk, e.hasDK)
			if w.opts.BloomBitsPerKey > 0 {
				hashes = append(hashes, e.hash)
			}
		}
		w.pageHashes = hashes
		if err := w.writePage(hashes); err != nil {
			return err
		}
	}
	w.arena, w.tile = w.arena[:0], w.tile[:0]
	return nil
}

// rankPacked sets w.pageOf without comparing entries. Those without a delete
// key take the first ranks, in arrival order. Each keyed entry becomes one
// uint64, (dk − min dk) << idxBits | arrival, whose integer order is the
// ranking's; one histogram pass over the keys' top bits then puts every entry
// in a bucket of consecutive ranks. A bucket inside one page maps to it in one
// step; only a bucket that straddles a page boundary is sorted. It reports
// false, having set nothing, when the tile's delete-key span leaves too few of
// the 64 bits for the arrival index.
func (w *Writer) rankPacked(per int) bool {
	tile, pageOf := w.tile, w.pageOf
	keyed, lo, hi := 0, uint64(math.MaxUint64), uint64(0)
	for i := range tile {
		if e := &tile[i]; e.hasDK {
			keyed++
			lo, hi = min(lo, e.dk), max(hi, e.dk)
		}
	}
	idxBits := bits.Len(uint(len(tile) - 1))
	if keyed > 0 && bits.Len64(hi-lo)+idxBits > 64 {
		return false
	}
	packed, unkeyed := w.packed[:0], 0
	for i := range tile {
		e := &tile[i]
		if !e.hasDK {
			pageOf[i] = int32(unkeyed / per)
			unkeyed++
			continue
		}
		packed = append(packed, (e.dk-lo)<<idxBits|uint64(i))
	}
	w.packed = packed
	if keyed == 0 {
		return true
	}
	// About one bucket per keyed entry: bucket b holds the keys whose top
	// bits read b.
	bucketBits := bits.Len(uint(keyed))
	shift := max(bits.Len64((hi-lo)<<idxBits|uint64(len(tile)-1))-bucketBits, 0)
	counts := slices.Grow(w.counts[:0], 1<<bucketBits+1)[:1<<bucketBits+1]
	clear(counts)
	for _, k := range packed {
		counts[k>>shift+1]++
	}
	for b := 1; b < len(counts); b++ {
		counts[b] += counts[b-1]
	}
	// counts[b] is where bucket b starts; the scatter moves it to where b ends.
	byBucket := slices.Grow(w.byBucket[:0], keyed)[:keyed]
	for _, k := range packed {
		b := k >> shift
		byBucket[counts[b]] = k
		counts[b]++
	}
	w.counts, w.byBucket = counts, byBucket
	mask := uint64(1)<<idxBits - 1
	start := 0
	for _, c := range counts[:len(counts)-1] {
		end := int(c)
		if end == start {
			continue
		}
		bucket := byBucket[start:end]
		if first := (unkeyed + start) / per; first == (unkeyed+end-1)/per {
			for _, k := range bucket {
				pageOf[k&mask] = int32(first)
			}
		} else {
			slices.Sort(bucket)
			for j, k := range bucket {
				pageOf[k&mask] = int32((unkeyed + start + j) / per)
			}
		}
		start = end
	}
	return true
}

// rankSorted sets w.pageOf for a tile rankPacked cannot pack, by a comparator
// sort of the arrival indices on (has a delete key, delete key, arrival).
func (w *Writer) rankSorted(per int) {
	tile := w.tile
	order := w.order[:0]
	for i := range tile {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int {
		ea, eb := &tile[a], &tile[b]
		switch {
		case ea.hasDK != eb.hasDK:
			if ea.hasDK {
				return 1
			}
			return -1
		case ea.dk != eb.dk:
			return cmp.Compare(ea.dk, eb.dk)
		}
		return cmp.Compare(a, b)
	})
	for rank, i := range order {
		w.pageOf[i] = int32(rank / per)
	}
	w.order = order
	w.sortedTiles++
}

// writePage emits the data block built in dataBuf and its index entry, with a
// page filter over hashes unless there are none.
func (w *Writer) writePage(hashes []uint64) error {
	h, err := w.writeBlock(w.dataBuf.Finish())
	if err != nil {
		return err
	}
	w.dataBuf.Reset()
	p := w.page
	w.page = pageStats{}
	ent := indexEntry{handle: h, tile: w.tileID, maxSeq: p.maxSeq, dkMin: 1, dkMax: 0} // empty span: never droppable
	if p.hasDK {
		ent.dkMin, ent.dkMax = p.dkMin, p.dkMax
	}
	if p.hasDel {
		ent.flags |= pageFlagHasTombstones
	}
	w.scratch = encodeIndexEntry(w.scratch[:0], ent)
	if len(hashes) > 0 {
		w.scratch = bloom.AppendCompact(w.scratch, hashes, w.opts.BloomBitsPerKey)
	}
	w.index.Add(w.lastEnc, w.scratch)
	w.meta.Props.NumPages++
	return nil
}

// writeBlock writes block bytes and their CRC trailer with one Write,
// appending the trailer to data in place, and returns the handle.
func (w *Writer) writeBlock(data []byte) (BlockHandle, error) {
	h := BlockHandle{Offset: w.offset, Length: uint64(len(data))}
	data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, castagnoli))
	if _, err := w.f.Write(data); err != nil {
		return BlockHandle{}, err
	}
	w.offset += uint64(len(data))
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
		w.meta.Largest = w.lastAdded.Clone()
	}

	var ftr footer

	// Bloom filter block: standard layout only (hashes stays empty in KiWi's,
	// whose filters went out with the pages' index entries).
	if w.opts.BloomBitsPerKey > 0 && len(w.hashes) > 0 {
		// Built in place in the writer's scratch buffer, with room for the CRC.
		w.scratch = slices.Grow(bloom.Append(w.scratch[:0], w.hashes, w.opts.BloomBitsPerKey), 4)
		h, err := w.writeBlock(w.scratch)
		if err != nil {
			return err
		}
		ftr.filter = h
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
