// Package iterator provides the merging machinery that presents the LSM
// tree's many sorted sources (memtables, level-0 runs, deeper runs) as one
// stream in internal-key order.
package iterator

import (
	"repro/internal/base"
)

// Internal is the positioning interface implemented by every internal-key
// iterator in the engine: memtable iterators, sstable iterators, and merge
// iterators themselves (allowing composition).
type Internal interface {
	// First positions on the smallest entry, returning validity.
	First() bool
	// SeekGE positions on the first entry >= target.
	SeekGE(target base.InternalKey) bool
	// Next advances, returning validity.
	Next() bool
	// Valid reports whether the iterator is positioned on an entry.
	Valid() bool
	// Key returns the current internal key; valid until repositioning.
	Key() base.InternalKey
	// Value returns the current value; valid until repositioning.
	Value() []byte
	// Error returns the first error encountered.
	Error() error
	// Close releases what the iterator holds (an sstable iterator's pinned
	// pages); its keys and values are dead afterwards. Positioning it again
	// is allowed.
	Close()
}

// mergeItem is one live source in the merge heap. Items are stored by value
// in a plain slice: the heap operations are hand-rolled below instead of
// going through container/heap, whose interface methods box every pushed and
// popped element into an `any` and so allocate on the steady-state Next path.
type mergeItem struct {
	iter  Internal
	index int
}

// mergeLess orders sources by current key; ties go to the lower index, which
// callers arrange to be the newer source.
func mergeLess(a, b *mergeItem) bool {
	if c := a.iter.Key().Compare(b.iter.Key()); c != 0 {
		return c < 0
	}
	return a.index < b.index
}

// Merge combines multiple internal iterators into one stream in internal-key
// order. Sources must be passed newest-first so that equal keys (which only
// arise across distinct snapshots of the same data) resolve to the newest.
type Merge struct {
	sources []Internal
	items   []mergeItem
	err     error
}

// NewMerge creates a merge iterator over the given sources, newest first.
func NewMerge(sources ...Internal) *Merge {
	return &Merge{sources: sources}
}

// siftDown restores the heap property below i. The slice is accessed through
// a local so the compiler keeps the bounds stable across the loop.
func (m *Merge) siftDown(i int) {
	items := m.items
	n := len(items)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && mergeLess(&items[r], &items[l]) {
			min = r
		}
		if !mergeLess(&items[min], &items[i]) {
			return
		}
		items[i], items[min] = items[min], items[i]
		i = min
	}
}

// init rebuilds the heap from sources positioned by pos, reusing the item
// slice's backing array across repositioning calls.
func (m *Merge) init(pos func(Internal) bool) bool {
	m.err = nil
	m.items = m.items[:0]
	for i, s := range m.sources {
		if pos(s) {
			m.items = append(m.items, mergeItem{iter: s, index: i})
		} else if err := s.Error(); err != nil {
			m.err = err
			return false
		}
	}
	for i := len(m.items)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m.Valid()
}

// First positions on the globally smallest entry.
func (m *Merge) First() bool {
	return m.init(func(s Internal) bool { return s.First() })
}

// SeekGE positions on the first entry >= target across all sources.
func (m *Merge) SeekGE(target base.InternalKey) bool {
	return m.init(func(s Internal) bool { return s.SeekGE(target) })
}

// Valid reports whether the iterator is positioned on an entry.
func (m *Merge) Valid() bool { return m.err == nil && len(m.items) > 0 }

// Key returns the current internal key.
func (m *Merge) Key() base.InternalKey { return m.items[0].iter.Key() }

// Value returns the current value.
func (m *Merge) Value() []byte { return m.items[0].iter.Value() }

// Source returns the index (in the NewMerge argument order) of the source
// supplying the current entry. Only valid while Valid.
func (m *Merge) Source() int { return m.items[0].index }

// Error returns the first error from any source.
func (m *Merge) Error() error { return m.err }

// Close closes every source and leaves the merge unpositioned.
func (m *Merge) Close() {
	for _, s := range m.sources {
		s.Close()
	}
	m.items = m.items[:0]
}

// Next advances past the current entry.
func (m *Merge) Next() bool {
	if !m.Valid() {
		return false
	}
	top := &m.items[0]
	if top.iter.Next() {
		m.siftDown(0)
	} else {
		if err := top.iter.Error(); err != nil {
			m.err = err
			return false
		}
		n := len(m.items) - 1
		m.items[0] = m.items[n]
		m.items = m.items[:n]
		m.siftDown(0)
	}
	return m.Valid()
}

// Concat chains iterators over key-disjoint, ordered sources (the files of
// one sorted run). It opens each child lazily via the open callback.
type Concat struct {
	n      int
	open   func(i int) (Internal, error)
	bounds func(i int) (smallest base.InternalKey, largest base.InternalKey)

	cur     Internal
	curIdx  int
	err     error
	invalid bool
}

// NewConcat builds a concatenating iterator over n children. bounds returns
// the key range of child i (used to binary-search seeks); open materializes
// it.
func NewConcat(n int, bounds func(int) (base.InternalKey, base.InternalKey), open func(int) (Internal, error)) *Concat {
	return &Concat{n: n, open: open, bounds: bounds, curIdx: -1, invalid: true}
}

// load closes the open child, if any, and opens child i.
func (c *Concat) load(i int) bool {
	c.Close()
	c.curIdx = i
	if i >= c.n {
		c.invalid = true
		return false
	}
	it, err := c.open(i)
	if err != nil {
		c.err = err
		c.invalid = true
		return false
	}
	c.cur = it
	return true
}

// First positions on the first entry of the first non-empty child.
func (c *Concat) First() bool {
	c.err = nil
	c.invalid = false
	start := 0
	if c.cur != nil && c.curIdx == 0 {
		// Reseek fast path: child 0 is already open; reposition it instead
		// of re-materializing a fresh iterator.
		if c.cur.First() {
			return true
		}
		if err := c.cur.Error(); err != nil {
			c.err = err
			c.invalid = true
			return false
		}
		start = 1
	}
	for i := start; i < c.n; i++ {
		if !c.load(i) {
			return false
		}
		if c.cur.First() {
			return true
		}
		if err := c.cur.Error(); err != nil {
			c.err = err
			c.invalid = true
			return false
		}
	}
	c.invalid = true
	return false
}

// SeekGE positions on the first entry >= target. The target child is found
// by binary search over the children's key bounds; when the target lands in
// the already-open child it is reseeked in place rather than reopened (the
// common case for the short forward reseeks a cached read view issues).
func (c *Concat) SeekGE(target base.InternalKey) bool {
	c.err = nil
	c.invalid = false
	// Find the first child whose largest key is >= target.
	lo, hi := 0, c.n
	for lo < hi {
		mid := (lo + hi) / 2
		_, largest := c.bounds(mid)
		if largest.Compare(target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo
	if c.cur != nil && c.curIdx == lo {
		if c.cur.SeekGE(target) {
			return true
		}
		if err := c.cur.Error(); err != nil {
			c.err = err
			c.invalid = true
			return false
		}
		start = lo + 1
	}
	for i := start; i < c.n; i++ {
		if !c.load(i) {
			return false
		}
		var ok bool
		if i == lo {
			ok = c.cur.SeekGE(target)
		} else {
			ok = c.cur.First()
		}
		if ok {
			return true
		}
		if err := c.cur.Error(); err != nil {
			c.err = err
			c.invalid = true
			return false
		}
	}
	c.invalid = true
	return false
}

// Next advances, rolling over into the next child when the current one is
// exhausted.
func (c *Concat) Next() bool {
	if c.invalid || c.cur == nil {
		return false
	}
	if c.cur.Next() {
		return true
	}
	if err := c.cur.Error(); err != nil {
		c.err = err
		c.invalid = true
		return false
	}
	for i := c.curIdx + 1; i < c.n; i++ {
		if !c.load(i) {
			return false
		}
		if c.cur.First() {
			return true
		}
		if err := c.cur.Error(); err != nil {
			c.err = err
			c.invalid = true
			return false
		}
	}
	c.invalid = true
	return false
}

// Valid reports whether the iterator is positioned on an entry.
func (c *Concat) Valid() bool { return !c.invalid && c.cur != nil && c.cur.Valid() }

// Key returns the current internal key.
func (c *Concat) Key() base.InternalKey { return c.cur.Key() }

// Value returns the current value.
func (c *Concat) Value() []byte { return c.cur.Value() }

// Error returns the first error encountered.
func (c *Concat) Error() error { return c.err }

// Close closes the open child, if any, and leaves the iterator unpositioned.
func (c *Concat) Close() {
	if c.cur != nil {
		c.cur.Close()
		c.cur = nil
	}
}
