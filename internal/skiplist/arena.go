package skiplist

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file is the only one in the package, and the first in the module, to
// use unsafe. The rest of the list sees nodes only through the methods below.

// node is the header of a list entry as it lies in an arena chunk. Only
// tower[:height] is backed by the chunk: the key follows the last tower slot
// and the value follows the key, so a search hop that compares a node's key
// reads the cache line its link was loaded from.
type node struct {
	keyLen uint32
	valLen uint32
	height uint32
	tower  [maxHeight]atomic.Uint32 // refs to the next node at each level
}

const (
	// nodeSize is a full-height header. Every chunk ends with at least this
	// much slack, so converting the address of a node with a truncated tower
	// to *node never reaches past the end of the chunk's allocation —
	// checkptr, on under -race, checks exactly that.
	nodeSize = uint64(unsafe.Sizeof(node{}))
	towerOff = uint64(unsafe.Offsetof(node{}.tower))

	// A ref names a node by its chunk's index (high bits) and its offset in
	// the chunk in 4-byte units (low offBits bits); nodes are 4-byte
	// aligned. Ref 0 is nil: it would name the head, at the start of chunk
	// 0, and nothing links to the head.
	offBits = 18
	offMask = 1<<offBits - 1
	// maxChunks caps the arena at 2^32 refs of 4 bytes: 16 GiB of nodes.
	maxChunks = 1 << (32 - offBits)

	// Chunks double from firstChunk up to maxChunk, so a small memtable
	// allocates little and a large one rolls rarely. Every offset in a
	// regular chunk fits a ref; an entry too large for one gets a chunk of
	// its own, where it sits at offset 0.
	firstChunk = 16 << 10
	maxChunk   = 4 << offBits // 1 MiB
	// numClasses counts the regular chunk sizes, firstChunk to maxChunk.
	numClasses = 7
)

func (n *node) key() []byte {
	return bytesAt(unsafe.Add(unsafe.Pointer(n), towerOff+4*uint64(n.height)), n.keyLen)
}

func (n *node) value() []byte {
	return bytesAt(unsafe.Add(unsafe.Pointer(n), towerOff+4*uint64(n.height)+uint64(n.keyLen)), n.valLen)
}

// bytesAt returns the n bytes at p with cap == len, so a caller's append
// copies rather than overwriting the next entry. Empty is nil.
func bytesAt(p unsafe.Pointer, n uint32) []byte {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(p), n)
}

// arena allocates nodes from chunks of pointer-free memory, so an insert
// allocates nothing of its own and the garbage collector never scans the
// list's contents. A chunk is fresh (zeroed) or one a retired list gave
// back to the arena's Chunks (not zeroed); newNode writes every header field
// either way. Allocation bumps the current chunk's offset; only the list's
// one writer allocates, so nothing here but the chunk table is shared with
// readers.
type arena struct {
	// table holds every chunk's base address by index. It grows by append
	// and is republished whole, so a loaded table never changes below its
	// length. A chunk is published here before any node in it is linked.
	table atomic.Pointer[[]unsafe.Pointer]
	// sizes holds each chunk's allocation size, by index: the writer's
	// alone, read again only by release.
	sizes []uint64
	// chunks, if not nil, is where addChunk looks first and release gives
	// every regular chunk back.
	chunks *Chunks

	// The chunk nodes are bump-allocated from: its address and index, the
	// next free byte, and its allocation size minus the nodeSize slack.
	base  unsafe.Pointer
	idx   uint32
	off   uint64
	limit uint64
}

// init makes the first chunk and returns the head node at its start, with
// a full, nil tower.
func (a *arena) init() *node {
	a.base, a.idx = a.addChunk(firstChunk)
	a.off, a.limit = nodeSize, firstChunk-nodeSize
	head := (*node)(a.base)
	head.keyLen, head.valLen, head.height = 0, 0, maxHeight
	for i := range head.tower {
		head.tower[i].Store(0)
	}
	return head
}

// addChunk takes a chunk of size bytes (a multiple of 8) from the free list
// or allocates a zeroed one, and publishes it.
func (a *arena) addChunk(size uint64) (unsafe.Pointer, uint32) {
	var t []unsafe.Pointer
	if p := a.table.Load(); p != nil {
		t = *p
	}
	if len(t) == maxChunks {
		panic("skiplist: arena exceeds 16 GiB")
	}
	base := a.chunks.get(size)
	if base == nil {
		// []uint64 rather than []byte: the base is 8-byte aligned at any size.
		base = unsafe.Pointer(unsafe.SliceData(make([]uint64, size/8)))
	}
	t = append(t, base)
	a.table.Store(&t)
	a.sizes = append(a.sizes, size)
	return base, uint32(len(t) - 1)
}

// release gives every regular chunk to the free list. No reader may hold a
// ref or a key of the list any more: the next list writes over them.
func (a *arena) release() {
	if a.chunks == nil {
		return
	}
	t := *a.table.Load()
	for i, size := range a.sizes {
		a.chunks.put(t[i], size)
	}
	a.sizes = nil
}

// newNode allocates a node of the given height holding copies of key and
// value, and returns its ref and address. Its tower is all nil: a recycled
// chunk still holds the links of the list that used it before.
func (a *arena) newNode(key, value []byte, height int) (uint32, *node) {
	kv := uint64(len(key)) + uint64(len(value))
	if kv > math.MaxUint32 {
		panic("skiplist: key and value exceed 4 GiB")
	}
	hdr := towerOff + 4*uint64(height)
	r, p := a.alloc((hdr + kv + 3) &^ 3)
	n := (*node)(p)
	n.keyLen, n.valLen, n.height = uint32(len(key)), uint32(len(value)), uint32(height)
	for i := 0; i < height; i++ {
		n.tower[i].Store(0)
	}
	dst := unsafe.Slice((*byte)(unsafe.Add(p, hdr)), kv)
	copy(dst[copy(dst, key):], value)
	return r, n
}

// alloc reserves size bytes, a multiple of 4, and returns their ref and
// address.
func (a *arena) alloc(size uint64) (uint32, unsafe.Pointer) {
	if size > maxChunk-nodeSize {
		base, idx := a.addChunk((size + nodeSize + 7) &^ 7)
		return idx << offBits, base
	}
	if a.off+size > a.limit {
		a.roll(size)
	}
	off := a.off
	a.off += size
	return a.idx<<offBits | uint32(off>>2), unsafe.Add(a.base, off)
}

// roll replaces the current chunk, which cannot hold size more bytes, with
// a chunk twice its size (capped at maxChunk) or the smallest power of two
// that holds size, whichever is larger. The old chunk's tail is never used.
func (a *arena) roll(size uint64) {
	next := min(2*(a.limit+nodeSize), maxChunk)
	for next < size+nodeSize {
		next *= 2
	}
	a.base, a.idx = a.addChunk(next)
	a.off, a.limit = 0, next-nodeSize
}

// Chunks is a free list of arena chunks: a list made with NewRecycled
// builds its arena from chunks a released list gave back before it
// allocates any. Only regular chunks (firstChunk to maxChunk, the sizes
// every list rolls through) are kept, up to one list's arena; a chunk made
// for one oversized entry, or one past that, is left to the garbage
// collector. Chunks is safe for concurrent use: a list may be
// released on any goroutine.
type Chunks struct {
	mu    sync.Mutex
	free  [numClasses][]unsafe.Pointer
	bytes uint64
	limit uint64
}

// NewChunks returns an empty free list that keeps one whole arena of a list
// that grows to about budget bytes of entries: those bytes plus the room its
// chunks leave unused, up to as much again while the chunks still double
// from firstChunk, and at most 2*maxChunk (the doubling series and the last
// chunk) once they have reached maxChunk.
func NewChunks(budget int64) *Chunks {
	b := uint64(max(budget, 0))
	return &Chunks{limit: b + min(b, 2*maxChunk)}
}

// class returns the free-list slot of a chunk of size bytes, or false for a
// size no list rolls to.
func class(size uint64) (int, bool) {
	if size < firstChunk || size > maxChunk || size&(size-1) != 0 {
		return 0, false
	}
	return bits.TrailingZeros64(size / firstChunk), true
}

// get returns a chunk of size bytes from the list, or nil. A nil *Chunks
// holds none.
func (c *Chunks) get(size uint64) unsafe.Pointer {
	k, ok := class(size)
	if c == nil || !ok {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.free[k])
	if n == 0 {
		return nil
	}
	p := c.free[k][n-1]
	c.free[k][n-1] = nil
	c.free[k] = c.free[k][:n-1]
	c.bytes -= size
	return p
}

// put keeps chunk p of size bytes for a later get, if it is a regular size
// and fits in the limit. Under the race detector it is poisoned first, so a
// reader still walking the released list reads garbage at once.
func (c *Chunks) put(p unsafe.Pointer, size uint64) {
	k, ok := class(size)
	if !ok {
		return
	}
	if poison {
		b := unsafe.Slice((*byte)(p), size)
		for i := range b {
			b[i] = 0xdb
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bytes+size > c.limit {
		return
	}
	c.free[k] = append(c.free[k], p)
	c.bytes += size
}

// resolver turns refs into nodes against a snapshot of the arena's chunk
// table. A ref loaded from a tower was linked after its chunk was
// published, so a ref past the snapshot only means the snapshot is stale.
type resolver struct {
	a *arena
	t []unsafe.Pointer
}

func (a *arena) resolver() resolver { return resolver{a: a, t: *a.table.Load()} }

// node returns the node r names, or nil for ref 0.
func (rv *resolver) node(r uint32) *node {
	if r == 0 {
		return nil
	}
	i := r >> offBits
	if int(i) >= len(rv.t) {
		rv.t = *rv.a.table.Load()
	}
	return (*node)(unsafe.Add(rv.t[i], uint64(r&offMask)<<2))
}
