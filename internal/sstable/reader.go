package sstable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"repro/internal/base"
	"repro/internal/block"
	"repro/internal/bloom"
	"repro/internal/cache"
	"repro/internal/vfs"
)

// PageInfo describes one data page for compaction-time filtering: a KiWi
// compaction drops a page (returns false from the filter) when a range
// tombstone covers its whole delete-key span and it holds no tombstones.
type PageInfo struct {
	// DKMin and DKMax span the page's secondary delete keys. An empty
	// span (DKMin > DKMax) means the page has no delete-keyed entries.
	DKMin base.DeleteKey
	DKMax base.DeleteKey
	// MaxSeq is the largest sequence number of any entry in the page. A
	// range tombstone only covers entries with smaller sequence numbers,
	// so it can only drop a page whose MaxSeq is below its own.
	MaxSeq base.SeqNum
	// HasTombstones reports whether the page holds point tombstones.
	HasTombstones bool
}

// Droppable reports whether rt may elide the whole page. Snapshot safety is
// the caller's responsibility.
func (p PageInfo) Droppable(rt base.RangeTombstone) bool {
	return !p.HasTombstones && p.DKMin <= p.DKMax &&
		p.MaxSeq < rt.Seq && rt.CoversRange(p.DKMin, p.DKMax)
}

// Reader provides random and sequential access to a finished table.
// It is safe for concurrent use by multiple iterators.
type Reader struct {
	f     vfs.File
	size  int64 // file size, bounding every block handle
	props Properties

	blockCache *cache.Cache
	cacheID    uint64

	// index entries and their separators, decoded eagerly at open.
	seps    [][]byte // encoded internal keys
	entries []indexEntry
	// groups[i] is the half-open range [start, end) of index positions
	// forming tile i.
	groups [][2]int

	// filter is a standard table's file filter; a KiWi table's filters are
	// its pages' (indexEntry.filter), and pageFilters says it has them.
	filter      bloom.Filter
	hasFilter   bool
	pageFilters bool

	rangeDels []base.RangeTombstone
}

// Open reads a table's metadata and returns a Reader. The file must remain
// open for the Reader's lifetime; Close releases it.
func Open(f vfs.File) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < FooterSize {
		return nil, fmt.Errorf("sstable: file too small (%d bytes)", size)
	}
	fb := make([]byte, FooterSize)
	if _, err := f.ReadAt(fb, size-FooterSize); err != nil {
		return nil, err
	}
	ftr, err := decodeFooter(fb)
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f, size: size}

	pb, err := r.readMeta(ftr.props)
	if err != nil {
		return nil, err
	}
	if r.props, err = decodeProperties(pb); err != nil {
		return nil, err
	}

	if ftr.filter.Length > 0 {
		filterRaw, err := r.readMeta(ftr.filter)
		if err != nil {
			return nil, err
		}
		filter, ok := bloom.Decode(filterRaw)
		if !ok {
			return nil, fmt.Errorf("%w: corrupt bloom filter block", ErrCorrupt)
		}
		r.filter, r.hasFilter = filter, true
	}

	if ftr.rangeDel.Length > 0 {
		raw, err := r.readMeta(ftr.rangeDel)
		if err != nil {
			return nil, err
		}
		for len(raw) > 0 {
			rt, rest, ok := base.DecodeRangeTombstone(raw)
			if !ok {
				return nil, fmt.Errorf("%w: corrupt range-tombstone block", ErrCorrupt)
			}
			r.rangeDels = append(r.rangeDels, rt)
			raw = rest
		}
	}

	ib, err := r.readMeta(ftr.index)
	if err != nil {
		return nil, err
	}
	it, err := block.NewIter(ib, base.CompareEncoded)
	if err != nil {
		return nil, err
	}
	// A first pass sizes the index, so that every separator is copied into
	// one allocation.
	var pages, sepBytes int
	for valid := it.First(); valid; valid = it.Next() {
		pages++
		sepBytes += len(it.Key())
	}
	if err := it.Error(); err != nil {
		return nil, err
	}
	seps := make([]byte, 0, sepBytes)
	r.seps, r.entries = make([][]byte, 0, pages), make([]indexEntry, 0, pages)
	for valid := it.First(); valid; valid = it.Next() {
		if len(it.Key()) < 8 {
			return nil, fmt.Errorf("%w: index key too short (%d bytes)", ErrCorrupt, len(it.Key()))
		}
		// The entry's page filter aliases ib, which the Reader keeps (readMeta).
		ent, ok := decodeIndexEntry(it.Value())
		if !ok {
			return nil, fmt.Errorf("%w: corrupt index entry", ErrCorrupt)
		}
		start := len(seps)
		seps = append(seps, it.Key()...)
		r.seps = append(r.seps, seps[start:len(seps):len(seps)])
		r.entries = append(r.entries, ent)
		r.pageFilters = r.pageFilters || ent.filter.SizeBytes() > 0
	}
	if err := it.Error(); err != nil {
		return nil, err
	}
	// Group consecutive pages by tile id.
	for i := 0; i < len(r.entries); {
		j := i + 1
		for j < len(r.entries) && r.entries[j].tile == r.entries[i].tile {
			j++
		}
		r.groups = append(r.groups, [2]int{i, j})
		i = j
	}
	return r, nil
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// SetCache attaches a shared block cache; id must be unique per file (the
// file number). Data blocks read afterwards are served from and inserted
// into the cache.
func (r *Reader) SetCache(c *cache.Cache, id uint64) {
	r.blockCache = c
	r.cacheID = id
}

// Props returns the table's properties.
func (r *Reader) Props() Properties { return r.props }

// RangeTombstones returns the table's secondary-key range tombstones.
func (r *Reader) RangeTombstones() []base.RangeTombstone { return r.rangeDels }

// NumPages returns the number of data pages in the table.
func (r *Reader) NumPages() int { return len(r.entries) }

// NumTiles returns the number of delete tiles in the table.
func (r *Reader) NumTiles() int { return len(r.groups) }

// Page returns compaction-relevant info about page i.
func (r *Reader) Page(i int) PageInfo {
	e := r.entries[i]
	return PageInfo{DKMin: e.dkMin, DKMax: e.dkMax, MaxSeq: e.maxSeq, HasTombstones: e.flags&pageFlagHasTombstones != 0}
}

// MayContain reports whether the table may hold some version of userKey,
// probing whatever Bloom filters it carries; false is definitive. Tables
// without filters always report true. In a KiWi table the page filters of
// the first tile whose separator's user key is >= userKey answer for the
// whole table. Versions of one key can straddle a tile boundary, but then the
// earlier tile's separator — its last entry — is one of them, so that tile
// holds a version and its filters admit the key; no later tile need be
// probed.
func (r *Reader) MayContain(userKey []byte) bool {
	switch {
	case r.hasFilter:
		return r.filter.MayContain(bloom.Hash(userKey))
	case !r.pageFilters:
		return true
	}
	h := bloom.Hash(userKey)
	gi := sort.Search(len(r.groups), func(gi int) bool {
		return base.Compare(base.DecodeInternalKey(r.seps[r.groups[gi][0]]).UserKey, userKey) >= 0
	})
	if gi == len(r.groups) {
		return false
	}
	for pi := r.groups[gi][0]; pi < r.groups[gi][1]; pi++ {
		if r.entries[pi].filter.MayContain(h) {
			return true
		}
	}
	return false
}

// readMeta reads a metadata block (properties, filter, range tombstones,
// index) at open into a buffer of its own, which the Reader keeps: it never
// goes through the block cache.
func (r *Reader) readMeta(h BlockHandle) ([]byte, error) {
	if err := r.checkHandle(h); err != nil {
		return nil, err
	}
	buf := make([]byte, h.Length+4)
	if err := r.readVerified(h, buf); err != nil {
		return nil, err
	}
	return buf[:h.Length], nil
}

// readBlock returns data block h, pinned: the caller must Release it, and
// nothing may use its bytes afterwards. A block-cache hit is pinned in place;
// a miss is read into a buffer from the cache's free list and, when fill is
// set, inserted into the cache. Point lookups and read iterators fill;
// compaction iterators do not, since their one pass over files about to be
// unlinked must not evict blocks that reads want. Without a cache every read
// is a miss, into a buffer of cache.Alloc's process-wide free list.
func (r *Reader) readBlock(h BlockHandle, fill bool) (cache.Block, error) {
	c := r.blockCache
	if c != nil {
		if b, ok := c.Get(r.cacheID, h.Offset); ok {
			return b, nil
		}
	}
	if err := r.checkHandle(h); err != nil {
		return cache.Block{}, err
	}
	b := c.Alloc(r.cacheID, h.Offset, int(h.Length)+4)
	if err := r.readVerified(h, b.Data()); err != nil {
		b.Release()
		return cache.Block{}, err
	}
	b.Truncate(int(h.Length))
	if fill && c != nil {
		c.Insert(r.cacheID, h.Offset, &b)
	}
	return b, nil
}

// checkHandle validates a block handle against the file size before a
// buffer is sized from it: a corrupt footer or index entry could otherwise
// demand an absurd allocation or a read past EOF. Checked in uint64 so a
// near-2^64 offset+length cannot wrap.
func (r *Reader) checkHandle(h BlockHandle) error {
	if h.Length > uint64(r.size) || h.Offset > uint64(r.size) ||
		h.Length+4 > uint64(r.size)-h.Offset {
		return fmt.Errorf("%w: block handle (offset %d, length %d) exceeds file size %d",
			ErrCorrupt, h.Offset, h.Length, r.size)
	}
	return nil
}

// readVerified reads block h and its CRC trailer from the file into buf,
// h.Length+4 bytes, and verifies the checksum.
func (r *Reader) readVerified(h BlockHandle, buf []byte) error {
	if _, err := r.f.ReadAt(buf, int64(h.Offset)); err != nil {
		return fmt.Errorf("sstable: reading block at %d: %w", h.Offset, err)
	}
	data, crcStored := buf[:h.Length], binary.LittleEndian.Uint32(buf[h.Length:])
	if got := crc32.Checksum(data, castagnoli); got != crcStored {
		return fmt.Errorf("%w: block at offset %d: checksum mismatch (stored %#x, computed %#x)", ErrCorrupt, h.Offset, crcStored, got)
	}
	return nil
}

// PageFilter decides whether a page should be read (true) or elided (false)
// during iteration. Used by KiWi compactions to drop covered pages.
type PageFilter func(PageInfo) bool

// Iter iterates a table in internal-key order, transparently merging the
// delete-key-ordered pages inside each tile. It pins the pages of the tile it
// is in (readBlock) and releases them when it leaves the tile or closes, so a
// key or value it returns is valid only until then. Not safe for concurrent
// use.
type Iter struct {
	r *Reader
	c *compactionReads // nil for a read-path iterator

	gi    int    // current tile (group) index; len(groups) == exhausted
	pages []page // the current tile's loaded pages
	cur   int    // index into pages of the minimal entry, -1 if none
	ikey  base.InternalKey
	err   error
}

// page is one loaded page of the current tile: its block, pinned, and a block
// iterator over it. The iterator outlives the block: pages beyond len keep
// theirs for the next tile, which Resets it.
type page struct {
	b  cache.Block
	it *block.Iter
}

// compactionReads is what NewCompactionIter adds to an Iter: the page filter
// and the counters of what it elided and read.
type compactionReads struct {
	filter      PageFilter
	dropped     uint64
	bytesLoaded uint64
}

// NewIter opens an iterator over the whole table. Its misses fill the block
// cache.
func (r *Reader) NewIter() *Iter { return &Iter{r: r, gi: -1, cur: -1} }

// NewCompactionIter opens an iterator for a merge that consumes each entry
// before advancing: it elides pages rejected by filter (nil keeps all),
// counting them (Dropped). Its misses leave the block cache's contents alone.
func (r *Reader) NewCompactionIter(filter PageFilter) *Iter {
	return &Iter{r: r, c: &compactionReads{filter: filter}, gi: -1, cur: -1}
}

// Dropped returns the number of pages elided by the page filter so far.
func (i *Iter) Dropped() uint64 {
	if i.c == nil {
		return 0
	}
	return i.c.dropped
}

// BytesLoaded returns the data-block bytes a compaction iterator has read so
// far; pages elided by the page filter are never read and do not count.
func (i *Iter) BytesLoaded() uint64 {
	if i.c == nil {
		return 0
	}
	return i.c.bytesLoaded
}

// Error returns the first I/O or corruption error encountered.
func (i *Iter) Error() error { return i.err }

// Valid reports whether the iterator is positioned on an entry.
func (i *Iter) Valid() bool { return i.cur >= 0 && i.err == nil }

// Key returns the current internal key. Valid until the next positioning
// call.
func (i *Iter) Key() base.InternalKey { return i.ikey }

// Value returns the current value, aliasing the pinned page. Valid until the
// iterator leaves the tile or closes.
func (i *Iter) Value() []byte { return i.pages[i.cur].it.Value() }

// Close releases the pages of the current tile and leaves the iterator
// unpositioned.
func (i *Iter) Close() {
	i.releaseTile()
	i.cur = -1
}

// releaseTile releases the pages of the current tile.
func (i *Iter) releaseTile() {
	for k := range i.pages {
		i.pages[k].b.Release()
	}
	i.pages = i.pages[:0]
}

// loadPage pins page pi as the next page of the tile being loaded and points
// that page's block iterator at it, Reset if the slot already has one.
func (i *Iter) loadPage(pi int) (*block.Iter, error) {
	h := i.r.entries[pi].handle
	b, err := i.r.readBlock(h, i.c == nil)
	if err != nil {
		return nil, err
	}
	if i.c != nil {
		i.c.bytesLoaded += h.Length
	}
	n := len(i.pages)
	if n < cap(i.pages) {
		i.pages = i.pages[:n+1]
	} else {
		i.pages = append(i.pages, page{})
	}
	p := &i.pages[n]
	p.b = b
	if p.it == nil {
		p.it, err = block.NewIter(b.Data(), base.CompareEncoded)
	} else {
		err = p.it.Reset(b.Data())
	}
	return p.it, err
}

// loadTile releases the current tile and pins the pages of tile gi that the
// page filter keeps. If seekTarget is non-nil each page is positioned at the
// first entry >= target, else at its first entry.
func (i *Iter) loadTile(gi int, seekTarget []byte) bool {
	i.releaseTile()
	i.gi = gi
	i.cur = -1
	if gi >= len(i.r.groups) {
		return false
	}
	g := i.r.groups[gi]
	for pi := g[0]; pi < g[1]; pi++ {
		if i.c != nil && i.c.filter != nil && !i.c.filter(i.r.Page(pi)) {
			i.c.dropped++
			continue
		}
		it, err := i.loadPage(pi)
		if err == nil {
			if seekTarget != nil {
				it.SeekGE(seekTarget)
			} else {
				it.First()
			}
			err = it.Error()
		}
		if err != nil {
			i.err = err
			i.releaseTile()
			return false
		}
	}
	return i.pickMin()
}

// pickMin selects the minimal current entry across the tile's pages.
func (i *Iter) pickMin() bool {
	i.cur = -1
	for pi := range i.pages {
		it := i.pages[pi].it
		if !it.Valid() {
			continue
		}
		if len(it.Key()) < 8 {
			i.err = fmt.Errorf("%w: data entry key too short (%d bytes)", ErrCorrupt, len(it.Key()))
			return false
		}
		if i.cur < 0 || base.CompareEncoded(it.Key(), i.pages[i.cur].it.Key()) < 0 {
			i.cur = pi
		}
	}
	if i.cur < 0 {
		return false
	}
	i.ikey = base.DecodeInternalKey(i.pages[i.cur].it.Key())
	return true
}

// First positions the iterator on the table's first entry.
func (i *Iter) First() bool {
	i.err = nil
	gi := 0
	for gi < len(i.r.groups) {
		if i.loadTile(gi, nil) {
			return true
		}
		if i.err != nil {
			return false
		}
		gi++
	}
	i.Close() // exhausted: pin nothing
	return false
}

// seekTile binary-searches the tiles for the first whose separator (its
// largest key) is >= the encoded key enc: that tile holds the first entry >=
// enc. It returns len(r.groups) when every entry is smaller.
func (r *Reader) seekTile(enc []byte) int {
	lo, hi := 0, len(r.groups)
	for lo < hi {
		mid := (lo + hi) / 2
		if base.CompareEncoded(r.seps[r.groups[mid][0]], enc) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SeekGE positions the iterator at the first entry with internal key >=
// target.
func (i *Iter) SeekGE(target base.InternalKey) bool {
	i.err = nil
	enc := target.Encode(nil)
	for gi := i.r.seekTile(enc); gi < len(i.r.groups); gi++ {
		if i.loadTile(gi, enc) {
			return true
		}
		if i.err != nil {
			return false
		}
		// The matching tile may be empty after page filtering; later
		// tiles are entirely >= target, so position them at the start.
		enc = nil
	}
	i.Close() // exhausted: pin nothing
	return false
}

// Next advances to the next entry in internal-key order.
func (i *Iter) Next() bool {
	if i.cur < 0 || i.err != nil {
		return false
	}
	it := i.pages[i.cur].it
	it.Next()
	if err := it.Error(); err != nil {
		i.err = err
		return false
	}
	if i.pickMin() {
		return true
	}
	// Tile exhausted; move to the next one.
	for gi := i.gi + 1; gi < len(i.r.groups); gi++ {
		if i.loadTile(gi, nil) {
			return true
		}
		if i.err != nil {
			return false
		}
	}
	i.Close() // exhausted: pin nothing
	return false
}

// getState is a point lookup's scratch: the encoded search key and the block
// iterator positioned on each page. It is pooled, so nothing a lookup returns
// may point into it: the value aliases the pinned block (LookupResult), never
// the iterator's key buffer.
type getState struct {
	key []byte
	it  *block.Iter
}

var getStates = sync.Pool{New: func() any { return new(getState) }}

// LookupResult is a point lookup's answer: the newest visible entry's kind,
// value and sequence number, if Found. Value aliases a block the result pins
// until Release.
type LookupResult struct {
	Kind  base.Kind
	Value []byte
	Seq   base.SeqNum
	Found bool
	// Filtered reports that a Bloom filter ruled the table out before any
	// page was read: the file filter, or the page filters of every page of
	// the tile the lookup lands on.
	Filtered bool

	block cache.Block // the page Value aliases
}

// Release drops the result's pin on the block Value aliases; Value must not
// be used afterwards. Releasing twice does nothing.
func (res *LookupResult) Release() { res.block.Release() }

// Lookup performs a point lookup — the newest visible entry for userKey at or
// below seq — consulting every filter the table carries on the way, with one
// hash of the key: a standard table's file filter first, then, in a KiWi
// table, each page's filter before the page is read. The caller interprets
// KindDelete as "definitively deleted", and must Release the result once done
// with its value.
func (r *Reader) Lookup(userKey []byte, seq base.SeqNum) (LookupResult, error) {
	return r.lookup(userKey, seq, r.hasFilter)
}

// Get is Lookup without the file filter, for callers that consult it first
// through MayContain; page filters are still used inside the tile. It returns
// the entry kind, its value, the entry's sequence number, and whether it was
// found. The value is copied out of the block, so it stays valid after Get
// returns.
func (r *Reader) Get(userKey []byte, seq base.SeqNum) (base.Kind, []byte, base.SeqNum, bool, error) {
	res, err := r.lookup(userKey, seq, false)
	if res.Found {
		res.Value = append([]byte(nil), res.Value...)
	}
	res.Release()
	return res.Kind, res.Value, res.Seq, res.Found, err
}

// lookup serves Lookup and Get. Only the first tile whose separator (its
// largest key) is >= the search key can hold the key. Each of its pages whose
// filter admits the key is sought once; the candidate with the user key and
// the largest trailer is the newest visible version, whose page stays pinned.
func (r *Reader) lookup(userKey []byte, seq base.SeqNum, fileFilter bool) (LookupResult, error) {
	var h uint64
	if fileFilter || r.pageFilters {
		h = bloom.Hash(userKey)
	}
	if fileFilter && !r.filter.MayContain(h) {
		return LookupResult{Filtered: true}, nil
	}
	g := getStates.Get().(*getState)
	defer getStates.Put(g)
	g.key = base.MakeSearchKey(userKey, seq).Encode(g.key[:0])
	gi := r.seekTile(g.key)
	if gi == len(r.groups) {
		return LookupResult{}, nil
	}
	var (
		res  = LookupResult{Filtered: true}
		best base.Trailer
	)
	for pi := r.groups[gi][0]; pi < r.groups[gi][1]; pi++ {
		// A table without page filters has zero ones, which admit every key.
		if !r.entries[pi].filter.MayContain(h) {
			continue
		}
		res.Filtered = false
		b, err := r.readBlock(r.entries[pi].handle, true)
		if err != nil {
			res.Release()
			return LookupResult{}, err
		}
		k, v, err := g.seek(b.Data())
		if err != nil {
			b.Release()
			res.Release()
			return LookupResult{}, err
		}
		if k != nil {
			ik := base.DecodeInternalKey(k)
			if base.Compare(ik.UserKey, userKey) == 0 && (!res.Found || ik.Trailer > best) {
				res.Release()
				best, res.Value, res.Found, res.block = ik.Trailer, v, true, b
				continue
			}
		}
		b.Release()
	}
	if res.Found {
		res.Kind, res.Seq = best.Kind(), best.SeqNum()
	}
	return res, nil
}

// seek positions the state's block iterator on the first entry of block data
// at or after the search key, returning that entry's key and value, or a nil
// key if the block has none.
func (g *getState) seek(data []byte) (key, value []byte, err error) {
	if g.it == nil {
		g.it, err = block.NewIter(data, base.CompareEncoded)
	} else {
		err = g.it.Reset(data)
	}
	if err != nil {
		return nil, nil, err
	}
	if !g.it.SeekGE(g.key) {
		return nil, nil, g.it.Error()
	}
	k := g.it.Key()
	if len(k) < 8 {
		return nil, nil, fmt.Errorf("%w: data entry key too short (%d bytes)", ErrCorrupt, len(k))
	}
	return k, g.it.Value(), nil
}
