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
type MemTable struct {
	list *skiplist.List

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

// New returns an empty memtable.
func New() *MemTable {
	m := &MemTable{list: skiplist.New(base.CompareEncoded)}
	m.oldestTombstone.Store(noTombstone)
	return m
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
// entry's own sequence number.
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

// Iter iterates the memtable in internal-key order.
type Iter struct {
	it   skiplist.Iter
	ikey base.InternalKey
	seek []byte // SeekGE's encoded target, reused from seek to seek
}

// NewIter returns an unpositioned iterator over the point entries.
func (m *MemTable) NewIter() *Iter { return &Iter{it: *m.list.NewIter()} }

// Valid reports whether the iterator is positioned on an entry.
func (i *Iter) Valid() bool { return i.it.Valid() }

// Key returns the current internal key.
func (i *Iter) Key() base.InternalKey { return i.ikey }

// Value returns the current value.
func (i *Iter) Value() []byte { return i.it.Value() }

// Close does nothing: the memtable's arena outlives its iterators.
func (i *Iter) Close() {}

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
