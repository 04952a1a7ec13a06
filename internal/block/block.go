// Package block implements the on-disk block format shared by sstable data
// and index blocks: prefix-compressed key/value entries with periodic
// restart points for binary search.
//
// Entry wire format (LevelDB-style):
//
//	shared   varint  // bytes shared with the previous key
//	unshared varint  // bytes of key following the shared prefix
//	valueLen varint
//	key      [unshared]byte
//	value    [valueLen]byte
//
// The block ends with a restart array: restartCount uint32 offsets followed
// by the count itself, all little-endian. Entries at restart offsets store
// their full key (shared == 0).
package block

import (
	"encoding/binary"
	"fmt"
)

// DefaultRestartInterval is the number of entries between restart points.
const DefaultRestartInterval = 16

// Writer incrementally builds a block. The zero value is not usable; use
// NewWriter.
type Writer struct {
	buf             []byte
	restarts        []uint32
	restartInterval int
	counter         int
	lastKey         []byte
	nEntries        int
}

// NewWriter returns a block writer with the given restart interval
// (DefaultRestartInterval if restartInterval <= 0).
func NewWriter(restartInterval int) *Writer {
	if restartInterval <= 0 {
		restartInterval = DefaultRestartInterval
	}
	return &Writer{restartInterval: restartInterval}
}

// Add appends an entry. Keys must be added in ascending order as defined by
// the caller's comparator; the writer does not verify ordering.
func (w *Writer) Add(key, value []byte) {
	shared := 0
	if w.counter < w.restartInterval {
		n := len(w.lastKey)
		if len(key) < n {
			n = len(key)
		}
		for shared < n && w.lastKey[shared] == key[shared] {
			shared++
		}
	} else {
		w.restarts = append(w.restarts, uint32(len(w.buf)))
		w.counter = 0
	}
	if len(w.restarts) == 0 {
		w.restarts = append(w.restarts, 0)
	}
	w.buf = binary.AppendUvarint(w.buf, uint64(shared))
	w.buf = binary.AppendUvarint(w.buf, uint64(len(key)-shared))
	w.buf = binary.AppendUvarint(w.buf, uint64(len(value)))
	w.buf = append(w.buf, key[shared:]...)
	w.buf = append(w.buf, value...)
	w.lastKey = append(w.lastKey[:0], key...)
	w.counter++
	w.nEntries++
}

// EstimatedSize returns the current encoded size of the block, including the
// restart array.
func (w *Writer) EstimatedSize() int {
	return len(w.buf) + 4*(len(w.restarts)+1)
}

// Count returns the number of entries added so far.
func (w *Writer) Count() int { return w.nEntries }

// Empty reports whether no entries have been added.
func (w *Writer) Empty() bool { return w.nEntries == 0 }

// Finish appends the restart array and returns the completed block. The
// returned slice aliases the writer's buffer; callers must copy or consume
// it before Reset.
func (w *Writer) Finish() []byte {
	if len(w.restarts) == 0 {
		w.restarts = append(w.restarts, 0)
	}
	for _, r := range w.restarts {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, r)
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(w.restarts)))
	return w.buf
}

// Reset clears the writer for reuse.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.restarts = w.restarts[:0]
	w.counter = 0
	w.lastKey = w.lastKey[:0]
	w.nEntries = 0
}

// Compare is the key comparison function used by Iter.SeekGE.
type Compare func(a, b []byte) int

// Iter iterates over a finished block. It is not safe for concurrent use.
type Iter struct {
	data     []byte // entries region (excludes restart array)
	restarts []uint32
	cmp      Compare

	offset     int // byte offset of the current entry
	nextOffset int
	key        []byte
	value      []byte
	valid      bool
	err        error
}

// NewIter opens an iterator over a finished block.
func NewIter(data []byte, cmp Compare) (*Iter, error) {
	i := &Iter{cmp: cmp}
	if err := i.Reset(data); err != nil {
		return nil, err
	}
	return i, nil
}

// Reset re-targets the iterator at another finished block, keeping its
// restart-offset and key buffers, and leaves it unpositioned. It validates
// data as NewIter does; after an error the iterator must be Reset again
// before use. Nothing of the previous block is referenced afterwards, so a
// caller that owns that block's buffer may overwrite it.
func (i *Iter) Reset(data []byte) error {
	i.data, i.restarts = nil, i.restarts[:0]
	i.offset, i.nextOffset = 0, 0
	i.key, i.value = i.key[:0], nil
	i.valid, i.err = false, nil
	if len(data) < 4 {
		return fmt.Errorf("block: too short (%d bytes)", len(data))
	}
	n := int(binary.LittleEndian.Uint32(data[len(data)-4:]))
	restartEnd := len(data) - 4
	restartStart := restartEnd - 4*n
	if n <= 0 || restartStart < 0 {
		return fmt.Errorf("block: corrupt restart array (count=%d)", n)
	}
	if cap(i.restarts) < n {
		i.restarts = make([]uint32, n)
	}
	restarts := i.restarts[:n]
	for k := range restarts {
		restarts[k] = binary.LittleEndian.Uint32(data[restartStart+4*k:])
		// Every restart must point into the entries region (== restartStart
		// is tolerated: it decodes as a clean end-of-block). An offset past
		// it would index outside the entry slice.
		if int(restarts[k]) > restartStart {
			return fmt.Errorf("block: restart %d offset %d beyond entries region (%d bytes)", k, restarts[k], restartStart)
		}
	}
	i.data, i.restarts = data[:restartStart], restarts
	return nil
}

// Valid reports whether the iterator is positioned on an entry.
func (i *Iter) Valid() bool { return i.valid }

// Error returns the first corruption error encountered, if any.
func (i *Iter) Error() error { return i.err }

// Key returns the current entry's key. The slice is only valid until the
// next positioning call.
func (i *Iter) Key() []byte { return i.key }

// Value returns the current entry's value, aliasing the block's buffer.
func (i *Iter) Value() []byte { return i.value }

// First positions the iterator on the first entry.
func (i *Iter) First() bool {
	i.key = i.key[:0]
	i.nextOffset = 0
	return i.Next()
}

// Next advances to the following entry, returning false at the end.
func (i *Iter) Next() bool {
	if i.err != nil || i.nextOffset >= len(i.data) {
		i.valid = false
		return false
	}
	i.offset = i.nextOffset
	off, shared, unshared, valueLen, ok := i.decodeHeader(i.nextOffset)
	if !ok {
		return false
	}
	if shared > len(i.key) {
		i.corrupt("shared prefix exceeds previous key")
		return false
	}
	i.key = append(i.key[:shared], i.data[off:off+unshared]...)
	i.value = i.data[off+unshared : off+unshared+valueLen]
	i.nextOffset = off + unshared + valueLen
	i.valid = true
	return true
}

// SeekGE positions the iterator at the first entry with key >= target.
func (i *Iter) SeekGE(target []byte) bool {
	if i.err != nil {
		return false
	}
	// Binary search the restart points for the last restart whose key is
	// < target, then scan forward.
	lo, hi := 0, len(i.restarts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		k, ok := i.restartKey(mid)
		if !ok {
			return false
		}
		if i.cmp(k, target) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	i.key = i.key[:0]
	i.nextOffset = int(i.restarts[lo])
	for i.Next() {
		if i.cmp(i.key, target) >= 0 {
			return true
		}
	}
	return false
}

// restartKey decodes the full key stored at restart point idx.
func (i *Iter) restartKey(idx int) ([]byte, bool) {
	off, shared, unshared, _, ok := i.decodeHeader(int(i.restarts[idx]))
	if !ok {
		return nil, false
	}
	if shared != 0 {
		i.corrupt("restart entry has shared prefix")
		return nil, false
	}
	return i.data[off : off+unshared], true
}

// decodeHeader parses the entry header at offset, returning the offset of
// the key bytes and the three lengths.
func (i *Iter) decodeHeader(offset int) (keyOff, shared, unshared, valueLen int, ok bool) {
	p := i.data[offset:]
	s, n1 := binary.Uvarint(p)
	if n1 <= 0 {
		i.corrupt("bad shared varint")
		return 0, 0, 0, 0, false
	}
	u, n2 := binary.Uvarint(p[n1:])
	if n2 <= 0 {
		i.corrupt("bad unshared varint")
		return 0, 0, 0, 0, false
	}
	v, n3 := binary.Uvarint(p[n1+n2:])
	if n3 <= 0 {
		i.corrupt("bad valueLen varint")
		return 0, 0, 0, 0, false
	}
	keyOff = offset + n1 + n2 + n3
	// Bounds-check in uint64 before narrowing: a hostile varint near 2^64
	// would wrap int addition negative and slip past an int comparison,
	// then panic as a negative slice index.
	if s > uint64(len(i.data)) || u > uint64(len(i.data)) || v > uint64(len(i.data)) ||
		int(u)+int(v) > len(i.data)-keyOff {
		i.corrupt("entry overruns block")
		return 0, 0, 0, 0, false
	}
	return keyOff, int(s), int(u), int(v), true
}

func (i *Iter) corrupt(msg string) {
	i.err = fmt.Errorf("block: corrupt entry at offset %d: %s", i.nextOffset, msg)
	i.valid = false
}
