// Package sstable implements Acheron's immutable on-disk table format.
//
// Layout:
//
//	[data block 0][crc] [data block 1][crc] ... [data block n][crc]
//	[bloom filter block][crc]         // standard layout only
//	[range-tombstone block][crc]      // KiWi secondary-key deletes
//	[properties block][crc]
//	[index block][crc]
//	[footer (80 bytes)]
//
// Data blocks are grouped into *delete tiles* (the KiWi layout from Lethe):
// tiles are disjoint and ordered on the sort key; the pages (blocks) inside
// a tile are ordered on the secondary delete key and therefore overlap on
// the sort key. A secondary-key range delete can drop whole pages whose
// delete-key span is covered, without rewriting the tile. A standard table
// is simply the degenerate case of one page per tile, so a single reader
// handles both layouts.
//
// The index block maps each page to: block handle, delete-key min/max,
// maximum sequence number, tile id and flags. The index key is the tile's
// largest internal key (shared by all pages of the tile), so sort-key binary
// search lands on tiles.
//
// Bloom filters follow the unit a point lookup reads. A standard table has
// one filter block over every user key, found through the footer. In a KiWi
// table every page of a tile spans the tile's whole sort-key range, so a
// file filter would still leave a lookup seeking all h pages; instead each
// page's index entry carries, after its flags, a filter over the user keys
// woven into that page (one probe-count byte, then the bits:
// bloom.AppendCompact), and the table has no filter block. The bits per key
// are the same, so the filter bytes are the file filter's to within per-page
// rounding, and a lookup reads only the pages whose filter admits the key.
// Versions of one user key may straddle a tile boundary; "is the key in this
// table?" still needs only the first tile whose separator's user key is >=
// the key, because a tile that ends on a version of the key holds that
// version (Reader.MayContain). A reader that predates page filters ignores
// the trailing bytes. Every reader likewise ignores bytes after the
// properties block's fixed fields: older tables put three varints there
// locating a prefix Bloom filter block, and they still open, that block
// unreferenced.
package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/base"
	"repro/internal/bloom"
)

// ErrCorrupt is wrapped into every checksum-mismatch and structural-decode
// failure on a table, so the background-error state machine can classify
// data corruption as permanent with errors.Is.
var ErrCorrupt = errors.New("sstable: corrupt table")

// Magic identifies an Acheron sstable in the footer.
const Magic = 0xAC4E504E // "ACheroN"

// FormatVersion is the current table format version.
const FormatVersion = 1

// FooterSize is the fixed size of the table footer.
const FooterSize = 80

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BlockHandle locates a block within the file.
type BlockHandle struct {
	Offset uint64
	Length uint64 // excludes the trailing 4-byte CRC
}

// EncodeBlockHandle appends h in varint form.
func EncodeBlockHandle(dst []byte, h BlockHandle) []byte {
	dst = binary.AppendUvarint(dst, h.Offset)
	return binary.AppendUvarint(dst, h.Length)
}

// DecodeBlockHandle parses a varint-encoded handle, returning the remainder.
func DecodeBlockHandle(b []byte) (BlockHandle, []byte, bool) {
	off, n := binary.Uvarint(b)
	if n <= 0 {
		return BlockHandle{}, b, false
	}
	length, m := binary.Uvarint(b[n:])
	if m <= 0 {
		return BlockHandle{}, b, false
	}
	return BlockHandle{Offset: off, Length: length}, b[n+m:], true
}

// Index-entry flag bits.
const (
	// pageFlagHasTombstones marks a page containing point tombstones.
	// Such a page must never be dropped by a secondary range delete:
	// dropping it would resurrect the keys its tombstones shadow.
	pageFlagHasTombstones = 1 << 0
)

// indexEntry is the decoded form of one index-block value: the page's
// handle, its delete-key span, its maximum sequence number, the tile it
// belongs to, flag bits and, in a KiWi table, the page's Bloom filter.
type indexEntry struct {
	handle BlockHandle
	dkMin  base.DeleteKey
	dkMax  base.DeleteKey
	maxSeq base.SeqNum
	tile   uint64
	flags  uint64
	// filter is the page filter, aliasing the index block; the zero Filter
	// (no trailer) admits every key.
	filter bloom.Filter
}

// encodeIndexEntry appends every field but the filter, whose compact form
// (bloom.AppendCompact) the writer appends straight after.
func encodeIndexEntry(dst []byte, e indexEntry) []byte {
	dst = EncodeBlockHandle(dst, e.handle)
	dst = binary.AppendUvarint(dst, e.dkMin)
	dst = binary.AppendUvarint(dst, e.dkMax)
	dst = binary.AppendUvarint(dst, uint64(e.maxSeq))
	dst = binary.AppendUvarint(dst, e.tile)
	return binary.AppendUvarint(dst, e.flags)
}

func decodeIndexEntry(b []byte) (indexEntry, bool) {
	var e indexEntry
	var ok bool
	e.handle, b, ok = DecodeBlockHandle(b)
	if !ok {
		return e, false
	}
	var n int
	e.dkMin, n = binary.Uvarint(b)
	if n <= 0 {
		return e, false
	}
	b = b[n:]
	e.dkMax, n = binary.Uvarint(b)
	if n <= 0 {
		return e, false
	}
	b = b[n:]
	var ms uint64
	ms, n = binary.Uvarint(b)
	if n <= 0 {
		return e, false
	}
	e.maxSeq = base.SeqNum(ms)
	b = b[n:]
	e.tile, n = binary.Uvarint(b)
	if n <= 0 {
		return e, false
	}
	b = b[n:]
	e.flags, n = binary.Uvarint(b)
	if n <= 0 {
		return e, false
	}
	if b = b[n:]; len(b) > 0 {
		e.filter, ok = bloom.DecodeCompact(b)
		return e, ok
	}
	return e, true
}

// Properties summarizes a table's contents. FADE consults OldestTombstone
// and NumDeletes to decide which file's TTL has expired and which file
// invalidates the most data.
type Properties struct {
	// NumEntries counts all entries, including tombstones.
	NumEntries uint64
	// NumDeletes counts point tombstones.
	NumDeletes uint64
	// NumRangeDeletes counts secondary-key range tombstones.
	NumRangeDeletes uint64
	// RawKeyBytes and RawValueBytes measure pre-block-format payload.
	RawKeyBytes   uint64
	RawValueBytes uint64
	// OldestTombstone is the smallest creation timestamp across all point
	// and range tombstones in the table; 0 when the table has none (check
	// NumDeletes+NumRangeDeletes before using).
	OldestTombstone base.Timestamp
	// DeleteKeyMin/Max span the secondary delete keys of all entries.
	DeleteKeyMin base.DeleteKey
	DeleteKeyMax base.DeleteKey
	// NumTiles and NumPages describe the KiWi layout (NumTiles==NumPages
	// for standard tables).
	NumTiles uint64
	NumPages uint64
	// DroppedPages is a retired field: no writer stamps it (written 0), but
	// it keeps its slot in the encoding so existing tables open.
	DroppedPages uint64
	// MaxSeqNum is the largest sequence number of any entry or range
	// tombstone in the table.
	MaxSeqNum base.SeqNum
	// MinSeqNum is the smallest sequence number of any entry in the
	// table (tombstone-retirement checks need to know whether a table
	// could still hold entries old enough for a range tombstone to
	// cover).
	MinSeqNum base.SeqNum
	// HasDuplicates reports whether some user key appears more than once
	// (multiple versions) in the table. Partial physical erasure (page
	// drops, eager rewrites) of such a table could expose an older
	// version of a key whose newest version was range-deleted, so it is
	// only permitted on duplicate-free tables.
	HasDuplicates bool
}

func encodeProperties(dst []byte, p *Properties) []byte {
	dst = binary.AppendUvarint(dst, p.NumEntries)
	dst = binary.AppendUvarint(dst, p.NumDeletes)
	dst = binary.AppendUvarint(dst, p.NumRangeDeletes)
	dst = binary.AppendUvarint(dst, p.RawKeyBytes)
	dst = binary.AppendUvarint(dst, p.RawValueBytes)
	dst = binary.AppendUvarint(dst, uint64(p.OldestTombstone))
	dst = binary.AppendUvarint(dst, p.DeleteKeyMin)
	dst = binary.AppendUvarint(dst, p.DeleteKeyMax)
	dst = binary.AppendUvarint(dst, p.NumTiles)
	dst = binary.AppendUvarint(dst, p.NumPages)
	dst = binary.AppendUvarint(dst, p.DroppedPages)
	dst = binary.AppendUvarint(dst, uint64(p.MaxSeqNum))
	dst = binary.AppendUvarint(dst, uint64(p.MinSeqNum))
	dup := uint64(0)
	if p.HasDuplicates {
		dup = 1
	}
	return binary.AppendUvarint(dst, dup)
}

func decodeProperties(b []byte) (Properties, error) {
	var p Properties
	var oldestTomb, maxSeq, minSeq, dup uint64
	fields := []*uint64{
		&p.NumEntries, &p.NumDeletes, &p.NumRangeDeletes,
		&p.RawKeyBytes, &p.RawValueBytes,
		&oldestTomb,
		&p.DeleteKeyMin, &p.DeleteKeyMax,
		&p.NumTiles, &p.NumPages, &p.DroppedPages,
		&maxSeq, &minSeq, &dup,
	}
	for i, f := range fields {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return p, fmt.Errorf("%w: corrupt properties block (field %d)", ErrCorrupt, i)
		}
		b = b[n:]
		*f = v
	}
	p.OldestTombstone = base.Timestamp(oldestTomb)
	p.MaxSeqNum = base.SeqNum(maxSeq)
	p.MinSeqNum = base.SeqNum(minSeq)
	p.HasDuplicates = dup == 1
	// Trailing bytes, such as the prefix-filter triple of older tables, are
	// ignored.
	return p, nil
}

// footer is the fixed-size trailer locating the metadata blocks.
type footer struct {
	index    BlockHandle
	filter   BlockHandle
	rangeDel BlockHandle
	props    BlockHandle
}

func (f footer) encode() []byte {
	b := make([]byte, FooterSize)
	binary.LittleEndian.PutUint64(b[0:], f.index.Offset)
	binary.LittleEndian.PutUint64(b[8:], f.index.Length)
	binary.LittleEndian.PutUint64(b[16:], f.filter.Offset)
	binary.LittleEndian.PutUint64(b[24:], f.filter.Length)
	binary.LittleEndian.PutUint64(b[32:], f.rangeDel.Offset)
	binary.LittleEndian.PutUint64(b[40:], f.rangeDel.Length)
	binary.LittleEndian.PutUint64(b[48:], f.props.Offset)
	binary.LittleEndian.PutUint64(b[56:], f.props.Length)
	binary.LittleEndian.PutUint32(b[64:], FormatVersion)
	binary.LittleEndian.PutUint32(b[68:], Magic)
	crc := crc32.Checksum(b[:72], castagnoli)
	binary.LittleEndian.PutUint32(b[72:], crc)
	// bytes 76..80 are reserved padding, zero.
	return b
}

func decodeFooter(b []byte) (footer, error) {
	var f footer
	if len(b) != FooterSize {
		return f, fmt.Errorf("%w: footer is %d bytes, want %d", ErrCorrupt, len(b), FooterSize)
	}
	if got := binary.LittleEndian.Uint32(b[68:]); got != Magic {
		return f, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, got)
	}
	if got := binary.LittleEndian.Uint32(b[64:]); got != FormatVersion {
		return f, fmt.Errorf("sstable: unsupported format version %d", got)
	}
	if want, got := binary.LittleEndian.Uint32(b[72:]), crc32.Checksum(b[:72], castagnoli); want != got {
		return f, fmt.Errorf("%w: footer checksum mismatch (stored %#x, computed %#x)", ErrCorrupt, want, got)
	}
	f.index = BlockHandle{binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:])}
	f.filter = BlockHandle{binary.LittleEndian.Uint64(b[16:]), binary.LittleEndian.Uint64(b[24:])}
	f.rangeDel = BlockHandle{binary.LittleEndian.Uint64(b[32:]), binary.LittleEndian.Uint64(b[40:])}
	f.props = BlockHandle{binary.LittleEndian.Uint64(b[48:]), binary.LittleEndian.Uint64(b[56:])}
	return f, nil
}
