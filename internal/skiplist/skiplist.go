// Package skiplist provides the ordered map backing Acheron's memtables: a
// single-writer, multi-reader skiplist over byte-slice keys. Readers never
// take locks; the writer links a new node bottom-up with atomic stores, so
// a reader sees it whole or not at all at each level.
package skiplist

import (
	"math"
	"sync/atomic"
)

const (
	maxHeight = 12
	// pValue is the branching probability; 1/4 gives the classic
	// space/search trade-off used by LevelDB.
	pValue = 0.25
)

// Compare orders two keys. Negative means a < b.
type Compare func(a, b []byte) int

// List is the skiplist. Create one with New. Insert calls must not run
// concurrently with each other; readers are safe beside them. Nodes, keys
// and values live in the list's arena (arena.go).
type List struct {
	arena  arena
	head   *node
	cmp    Compare
	height atomic.Int32
	count  atomic.Int64
	bytes  atomic.Int64
	rng    splitmix
}

// splitmix is a tiny deterministic PRNG (SplitMix64); the list is
// reproducible for a given insertion sequence, which keeps benchmarks and
// property tests deterministic.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns an empty list ordered by cmp.
func New(cmp Compare) *List { return NewRecycled(cmp, nil) }

// NewRecycled returns an empty list ordered by cmp whose arena takes its
// chunks from c before it allocates any, and gives them back to c on
// Release. A nil c recycles nothing.
func NewRecycled(cmp Compare, c *Chunks) *List {
	l := &List{cmp: cmp}
	l.arena.chunks = c
	l.head = l.arena.init()
	l.rng = 0x9E3779B97F4A7C15
	l.height.Store(1)
	return l
}

// Release gives the list's arena chunks back to the Chunks it was made
// with. The list, its iterators and every key and value they returned are
// dead from then on: the next list writes over them. It may be called only
// once nothing else uses the list: no writer and no reader.
func (l *List) Release() { l.arena.release() }

// Len returns the number of entries.
func (l *List) Len() int { return int(l.count.Load()) }

// Bytes returns the logical size of the entries: key and value plus 64
// bytes each. It is a fixed function of the entries inserted, not of how
// the arena lays them out, so the engine's flush points depend only on
// what was written. An entry's physical size is at most its logical one.
func (l *List) Bytes() int64 { return l.bytes.Load() }

func (l *List) randomHeight() int {
	h := 1
	const threshold = uint64(float64(math.MaxUint64) * pValue)
	for h < maxHeight && l.rng.next() < threshold {
		h++
	}
	return h
}

// findGE returns the first node with key >= target, also filling prev with
// the predecessor at every level when prev != nil.
func (l *List) findGE(target []byte, prev *[maxHeight]*node) *node {
	rv := l.arena.resolver()
	x := l.head
	level := int(l.height.Load()) - 1
	for {
		next := rv.node(x.tower[level].Load())
		if next != nil && l.cmp(next.key(), target) < 0 {
			x = next
			continue
		}
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// Insert adds a key/value pair. The key must not already be present; the
// engine guarantees uniqueness because every internal key carries a unique
// sequence number. Key and value are copied into the arena; the caller may
// reuse both once Insert returns.
//
// Insert must not run concurrently with another Insert. Linking proceeds
// bottom-up, and a node's link at each level is stored before the link to
// it, so a node becomes visible to readers at level 0 first and is fully
// initialized before it is published anywhere.
func (l *List) Insert(key, value []byte) {
	h := l.randomHeight()
	ref, n := l.arena.newNode(key, value, h)
	// Search with the arena's copy: the caller's key then never reaches
	// the comparator, so it does not escape and may live on their stack.
	var prev [maxHeight]*node
	l.findGE(n.key(), &prev)
	for i := 0; i < h; i++ {
		p := prev[i]
		if p == nil {
			// A level above the list's height: only the head links there.
			p = l.head
		}
		n.tower[i].Store(p.tower[i].Load())
		p.tower[i].Store(ref)
	}
	if int32(h) > l.height.Load() {
		l.height.Store(int32(h))
	}
	l.count.Add(1)
	l.bytes.Add(int64(len(key) + len(value) + 64))
}

// Get returns the value stored at exactly key.
func (l *List) Get(key []byte) ([]byte, bool) {
	n := l.findGE(key, nil)
	if n != nil && l.cmp(n.key(), key) == 0 {
		return n.value(), true
	}
	return nil, false
}

// Iter is a stateful iterator over the list. It is safe to use concurrently
// with the writer, observing some subset of concurrent insertions.
type Iter struct {
	rv         resolver
	l          *List
	n          *node
	key, value []byte // n's, cut once per move
}

// NewIter returns an unpositioned iterator.
func (l *List) NewIter() *Iter { return &Iter{l: l, rv: l.arena.resolver()} }

// Valid reports whether the iterator is positioned on an entry.
func (i *Iter) Valid() bool { return i.n != nil }

// Key returns the current key. It aliases the arena and must not be
// mutated; its cap equals its len.
func (i *Iter) Key() []byte { return i.key }

// Value returns the current value, under the same terms as Key.
func (i *Iter) Value() []byte { return i.value }

func (i *Iter) set(n *node) bool {
	i.n = n
	if n == nil {
		i.key, i.value = nil, nil
		return false
	}
	i.key, i.value = n.key(), n.value()
	return true
}

// First positions the iterator on the smallest key.
func (i *Iter) First() bool { return i.set(i.rv.node(i.l.head.tower[0].Load())) }

// Last positions the iterator on the largest key.
func (i *Iter) Last() bool {
	x := i.l.head
	for level := int(i.l.height.Load()) - 1; level >= 0; {
		if next := i.rv.node(x.tower[level].Load()); next != nil {
			x = next
		} else {
			level--
		}
	}
	if x == i.l.head {
		return i.set(nil)
	}
	return i.set(x)
}

// SeekGE positions the iterator on the first key >= target.
func (i *Iter) SeekGE(target []byte) bool { return i.set(i.l.findGE(target, nil)) }

// Next advances the iterator.
func (i *Iter) Next() bool {
	if i.n == nil {
		return false
	}
	return i.set(i.rv.node(i.n.tower[0].Load()))
}
