// Package memtable wraps the skiplist with the bookkeeping an LSM memtable
// needs: size accounting for flush triggers, tombstone statistics for FADE,
// and a sidecar holding KiWi secondary-key range tombstones. A memtable has
// one writer at a time — the engine's commit pipeline applies groups one
// after another — and any number of lock-free readers beside it.
package memtable

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/base"
	"repro/internal/skiplist"
)

// MemTable is an in-memory, ordered write buffer. Add and AddRangeTombstone
// must not be called concurrently with each other; every read method may
// run beside them, with no lock.
//
// A memtable is reference counted. New hands its creator the first
// reference, Ref adds one and Unref drops one; the last Unref releases the
// arena, which a memtable made by a Pool hands to the pool's next memtable.
// Every key and value a read returned is dead from then on, so a reader
// holds a reference for as long as it uses one.
type MemTable struct {
	list *skiplist.List
	refs atomic.Int32

	// rangeDels is published copy-on-write: AddRangeTombstone stores a new
	// slice, never appending in place, so a loaded slice is immutable and
	// readers walk it with no lock and no copy. An add copies the list; a
	// memtable holds few tombstones and is read far more often than that.
	rangeDels atomic.Pointer[[]base.RangeTombstone]

	numDeletes atomic.Int64
	// oldestTombstone is the creation time of the oldest tombstone, or
	// noTombstone while there is none.
	oldestTombstone atomic.Int64
}

// noTombstone marks a memtable that holds no tombstone yet; it is later
// than any creation time.
const noTombstone = math.MaxInt64

// New returns an empty memtable whose arena is not recycled, holding the
// caller's reference.
func New() *MemTable { return (*Pool)(nil).New() }

// Pool recycles memtable arenas: a memtable it made gives its arena chunks
// back when its last reference goes, and the pool's next memtables build on
// them before they allocate. It is safe for concurrent use.
type Pool struct{ chunks *skiplist.Chunks }

// NewPool returns a pool for memtables of about budget bytes: it keeps one
// retired memtable's arena.
func NewPool(budget int64) *Pool { return &Pool{chunks: skiplist.NewChunks(budget)} }

// New returns an empty memtable built on the pool's chunks, holding the
// caller's reference. A nil pool recycles nothing.
func (p *Pool) New() *MemTable {
	var c *skiplist.Chunks
	if p != nil {
		c = p.chunks
	}
	m := &MemTable{list: skiplist.NewRecycled(base.CompareEncoded, c)}
	m.refs.Store(1)
	m.oldestTombstone.Store(noTombstone)
	return m
}

// Ref adds a reference. The caller must already hold one, directly or
// through the owner it acts for: a memtable whose last reference went is
// gone for good.
func (m *MemTable) Ref() {
	if m.refs.Add(1) <= 1 {
		panic("memtable: Ref after the last Unref")
	}
}

// Unref drops a reference. The last one releases the arena: what any read
// of the memtable returned may be overwritten from then on.
func (m *MemTable) Unref() {
	switch n := m.refs.Add(-1); {
	case n == 0:
		m.list.Release()
	case n < 0:
		panic("memtable: Unref without a reference")
	}
}

// Add inserts an entry. The key's sequence number must be unique within the
// memtable. key and value are copied.
func (m *MemTable) Add(ikey base.InternalKey, value []byte) {
	// The skiplist copies the key into its arena before comparing it, so
	// the encoding stays on the stack unless the key outgrows buf.
	var buf [128]byte
	if ikey.Kind() == base.KindDelete {
		ts := base.DecodeTombstoneValue(value)
		m.noteTombstone(ts)
		m.numDeletes.Add(1)
	}
	m.list.Insert(ikey.Encode(buf[:0]), value)
}

// AddRangeTombstone records a secondary-key range tombstone.
func (m *MemTable) AddRangeTombstone(rt base.RangeTombstone) {
	old := m.RangeTombstones()
	next := make([]base.RangeTombstone, len(old)+1)
	copy(next, old)
	next[len(old)] = rt
	m.rangeDels.Store(&next)
	m.noteTombstone(rt.CreatedAt)
}

func (m *MemTable) noteTombstone(ts base.Timestamp) {
	if int64(ts) < m.oldestTombstone.Load() {
		m.oldestTombstone.Store(int64(ts))
	}
}

// RangeTombstones returns the sidecar tombstones recorded so far. The slice
// is shared and immutable: a later AddRangeTombstone publishes a new slice
// and leaves this one unchanged. Callers must not modify it.
func (m *MemTable) RangeTombstones() []base.RangeTombstone {
	if p := m.rangeDels.Load(); p != nil {
		return *p
	}
	return nil
}

// searchKeys holds Get's encoded search keys. A stack buffer would not do:
// the skiplist hands the key to its comparator, a func value, so it escapes.
var searchKeys = sync.Pool{New: func() any { return new([]byte) }}

// Get returns the newest entry for userKey visible at seq, along with the
// entry's own sequence number. The value aliases the arena: it lives as
// long as the caller's reference.
func (m *MemTable) Get(userKey []byte, seq base.SeqNum) (base.Kind, []byte, base.SeqNum, bool) {
	it := m.list.NewIter()
	search := searchKeys.Get().(*[]byte)
	defer searchKeys.Put(search)
	*search = base.MakeSearchKey(userKey, seq).Encode((*search)[:0])
	if !it.SeekGE(*search) {
		return 0, nil, 0, false
	}
	ik := base.DecodeInternalKey(it.Key())
	if base.Compare(ik.UserKey, userKey) != 0 {
		return 0, nil, 0, false
	}
	return ik.Kind(), it.Value(), ik.SeqNum(), true
}

// ApproximateBytes returns the memory footprint used for flush decisions.
func (m *MemTable) ApproximateBytes() int64 { return m.list.Bytes() }

// Len returns the number of point entries.
func (m *MemTable) Len() int { return m.list.Len() }

// NumDeletes returns the number of point tombstones.
func (m *MemTable) NumDeletes() int64 { return m.numDeletes.Load() }

// NumRangeDeletes returns the number of range tombstones.
func (m *MemTable) NumRangeDeletes() int { return len(m.RangeTombstones()) }

// Empty reports whether the memtable holds no entries of any kind.
func (m *MemTable) Empty() bool { return m.Len() == 0 && m.NumRangeDeletes() == 0 }

// OldestTombstone returns the creation time of the memtable's oldest
// tombstone; ok is false when it holds none.
func (m *MemTable) OldestTombstone() (base.Timestamp, bool) {
	ts := m.oldestTombstone.Load()
	return base.Timestamp(ts), ts != noTombstone
}

// Iter iterates the memtable in internal-key order. It holds a reference
// to the memtable from NewIter to Close.
type Iter struct {
	m    *MemTable // nil once closed
	it   skiplist.Iter
	ikey base.InternalKey
	seek []byte // SeekGE's encoded target, reused from seek to seek
}

// NewIter returns an unpositioned iterator over the point entries. The
// caller must hold a reference, which the iterator adds to until Close.
func (m *MemTable) NewIter() *Iter {
	m.Ref()
	return &Iter{m: m, it: *m.list.NewIter()}
}

// Valid reports whether the iterator is positioned on an entry.
func (i *Iter) Valid() bool { return i.it.Valid() }

// Key returns the current internal key.
func (i *Iter) Key() base.InternalKey { return i.ikey }

// Value returns the current value.
func (i *Iter) Value() []byte { return i.it.Value() }

// Close drops the iterator's reference to its memtable, which may be the
// last one: a key or value the iterator returned is dead from then on.
// Closing twice is safe.
func (i *Iter) Close() {
	if i.m != nil {
		i.m.Unref()
		i.m = nil
	}
}

func (i *Iter) update(valid bool) bool {
	if valid {
		i.ikey = base.DecodeInternalKey(i.it.Key())
	}
	return valid
}

// First positions on the smallest entry.
func (i *Iter) First() bool { return i.update(i.it.First()) }

// Last positions on the largest entry.
func (i *Iter) Last() bool { return i.update(i.it.Last()) }

// SeekGE positions on the first entry >= target.
func (i *Iter) SeekGE(target base.InternalKey) bool {
	i.seek = target.Encode(i.seek[:0])
	return i.update(i.it.SeekGE(i.seek))
}

// Next advances the iterator.
func (i *Iter) Next() bool { return i.update(i.it.Next()) }

// Error always returns nil: memtable iteration cannot fail.
func (i *Iter) Error() error { return nil }
