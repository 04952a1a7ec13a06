// Package cache implements the sharded SIEVE block cache that sits between
// sstable readers and the filesystem. Blocks are keyed by (file id, block
// offset); the cache holds verified, decoded block bytes so hot read paths
// skip both I/O and checksum work.
//
// A block is reference counted: the cache holds one reference while the
// block is resident, and each reader holds one, a pin, from the Get or Alloc
// that handed it the block until it calls Release. Eviction drops only the
// cache's reference and never looks at pins, so what SIEVE evicts, and the
// bytes a block is charged (its length), do not depend on who reads it. When
// the last reference goes, the buffer joins its shard's free list, and Alloc
// hands it to the next miss. The free list yields to the resident blocks: a
// shard's blocks and spare buffers together stay within its capacity, except
// that the list always keeps one buffer, so a full shard hands each
// eviction's buffer to the next miss.
//
// Each shard keeps its blocks in a queue, newest at the head, and marks a
// block visited when a Get hits it; a hit moves nothing. To make room, a
// hand walks from the tail toward the head, wrapping back to the tail,
// clears each visited mark it passes and evicts the first block whose mark
// is already clear, then stays where it stopped. A block read since the
// hand last passed it survives another lap, so a scan's blocks, read once,
// go before a hot set that is read again and again (Zhang et al., "SIEVE is
// Simpler than LRU", NSDI 2024).
package cache

import (
	"sync"
	"sync/atomic"
)

const (
	maxShards     = 16
	minShardBytes = 256 << 10
	// slotChunk is how many slots are allocated at a time: slots never
	// move, and a chunk keeps a shard's slots together in memory.
	slotChunk = 128
	// spareRound rounds up a fresh buffer's capacity, so one freed by a block
	// a little shorter than the next miss's still fits it.
	spareRound = 1 << 10
)

// Cache is a fixed-capacity, sharded SIEVE cache over block contents, which
// stay as they are while the cache or a pin holds them. It is safe for
// concurrent use.
type Cache struct {
	shards    []shard
	mask      uint64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type blockKey struct {
	id  uint64
	off uint64
}

// slot holds one block. The queue is circular through slot 0, a sentinel
// whose next is the head (newest) and whose prev is the tail (oldest); a
// free slot's next links the free list. Index 0 doubles as "none". A slot
// evicted while pinned is in neither: it keeps its buffer until the last
// pin's Release frees it. Slots never move (see slotChunk), so a pin can
// drop its reference without the shard's lock; everything else about a slot
// is read and written under it.
type slot struct {
	key        blockKey
	data       []byte
	refs       atomic.Int32 // the cache's reference while queued, plus one per pin
	self       int32        // this slot's index
	prev, next int32        // toward the head, toward the tail
	visited    bool
}

type shard struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	index    map[blockKey]int32 // pointer-free, so the GC does not scan it
	chunks   []*[slotChunk]slot // slot i is chunks[i/slotChunk][i%slotChunk]
	nslots   int32
	free     int32 // first free slot, 0 if none
	hand     int32 // next slot the hand looks at, 0 to start from the tail
	// spare holds released buffers (length 0, full capacity) for Alloc;
	// their capacities sum to spareBytes, and bytes+spareBytes <= capacity
	// unless spare holds at most one buffer.
	spare      [][]byte
	spareBytes int64
}

// loose is the free list behind Alloc on a nil Cache, so the pages a reader
// without a block cache releases go to its next miss: without it, a merge of
// uncached tables allocates every page it reads (TestRunAllocCeiling in
// internal/compaction). It is the free list of a smallest shard and caches
// nothing.
var loose = shard{capacity: minShardBytes}

// Block is a pin on one block's buffer, handed out by Get and Alloc. Its
// bytes stay as they are until Release, after which they may be handed to
// another reader and overwritten. Copies of a Block share its one pin, which
// exactly one of them releases. The zero Block pins nothing.
type Block struct {
	data []byte
	s    *shard // the shard whose free list the buffer returns to, nil for none
	sl   *slot  // the slot holding the buffer, nil while the cache does not
}

// Data returns the block's bytes, valid until Release.
func (b *Block) Data() []byte { return b.data }

// Truncate shortens the block to its first n bytes. It is for the reader
// that filled an Alloc'd buffer, before Insert.
func (b *Block) Truncate(n int) { b.data = b.data[:n] }

// Release drops the pin. The last reference to go offers the buffer to the
// free list (see recycle); a pin on a cached block that is not the last takes
// no lock.
// Releasing the zero Block, or one twice, does nothing.
func (b *Block) Release() {
	switch s := b.s; {
	case b.sl != nil:
		if b.sl.refs.Add(-1) == 0 { // evicted meanwhile: nothing else can reach it
			s.mu.Lock()
			s.freeSlot(b.sl)
			s.mu.Unlock()
		}
	case s != nil:
		s.mu.Lock()
		s.recycle(b.data)
		s.mu.Unlock()
	}
	*b = Block{}
}

// New returns a cache bounded at capacity bytes, split evenly across up to
// 16 shards, fewer where that would leave a shard under 256 KiB. A capacity
// <= 0 yields a cache that stores nothing.
func New(capacity int64) *Cache {
	n := maxShards
	for n > 1 && capacity/int64(n) < minShardBytes {
		n /= 2
	}
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = shard{
			capacity: capacity / int64(n),
			index:    make(map[blockKey]int32),
			chunks:   []*[slotChunk]slot{new([slotChunk]slot)},
			nslots:   1,
		}
	}
	return c
}

func (c *Cache) shard(k blockKey) *shard {
	h := k.id*0x9e3779b97f4a7c15 ^ k.off*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return &c.shards[h&c.mask]
}

// Get returns the cached block, pinned, if present; the caller must Release
// it.
func (c *Cache) Get(id, off uint64) (Block, bool) {
	k := blockKey{id, off}
	s := c.shard(k)
	s.mu.Lock()
	i, ok := s.index[k]
	var b Block
	if ok {
		sl := s.slot(i)
		sl.visited = true
		sl.refs.Add(1)
		b = Block{data: sl.data, s: s, sl: sl}
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return Block{}, false
	}
	c.hits.Add(1)
	return b, true
}

// Alloc returns a pinned buffer of n bytes, of unspecified content, for the
// block at (id, off): a released buffer of that block's shard when one is
// big enough, else a fresh one. The caller fills it, and either Inserts it
// or Releases it, which recycles the buffer. On a nil Cache, Alloc draws on
// the process-wide free list loose instead, and the buffer cannot be
// Inserted.
func (c *Cache) Alloc(id, off uint64, n int) Block {
	s := &loose
	if c != nil {
		s = c.shard(blockKey{id, off})
	}
	s.mu.Lock()
	var buf []byte
	for j := len(s.spare) - 1; j >= 0; j-- {
		if cap(s.spare[j]) >= n {
			buf = s.spare[j][:n]
			s.dropSpare(j)
			break
		}
	}
	if buf == nil && len(s.spare) > 0 {
		// None fits: let the newest go, so buffers too small for the
		// blocks being read drain away instead of being scanned forever.
		s.dropSpare(len(s.spare) - 1)
	}
	s.mu.Unlock()
	if buf == nil {
		buf = make([]byte, n, (n+spareRound-1)/spareRound*spareRound)
	}
	return Block{data: buf, s: s}
}

// dropSpare removes spare buffer j.
func (s *shard) dropSpare(j int) {
	last := len(s.spare) - 1
	s.spareBytes -= int64(cap(s.spare[j]))
	s.spare[j] = s.spare[last]
	s.spare[last] = nil
	s.spare = s.spare[:last]
}

// Insert makes b, a buffer Alloc returned for the same id and off and filled
// since, the cached block for its key; b stays pinned by the caller. A block
// bigger than a shard is not cached, and drops the block it would have
// replaced.
func (c *Cache) Insert(id, off uint64, b *Block) {
	b.sl = c.insert(blockKey{id, off}, b.data)
}

// Put inserts a copy of data as the cached block for (id, off), unpinned, so
// data stays the caller's. Oversized blocks (bigger than a shard) are not
// cached, and drop the block they would have replaced.
func (c *Cache) Put(id, off uint64, data []byte) {
	b := c.Alloc(id, off, len(data))
	copy(b.data, data)
	c.Insert(id, off, &b)
	b.Release()
}

// insert queues data at the head as k's block, with the cache's reference
// and the caller's pin, evicting to make room, and returns its slot, nil if it
// is too big to cache.
func (c *Cache) insert(k blockKey, data []byte) *slot {
	s := c.shard(k)
	size := int64(len(data))
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[k]; ok {
		s.remove(i) // a replaced block goes back in as a new one
	}
	if size > s.capacity {
		return nil
	}
	// Count the block and make room before queueing it, so the hand never
	// takes it and the buffers evicted for it are weighed against it.
	s.bytes += size
	for s.bytes > s.capacity {
		s.evict()
		c.evictions.Add(1)
	}
	for len(s.spare) > 1 && s.bytes+s.spareBytes > s.capacity {
		s.dropSpare(len(s.spare) - 1)
	}
	sl := s.alloc()
	head := s.slot(0).next
	sl.key, sl.data, sl.prev, sl.next = k, data, 0, head
	sl.refs.Store(2)
	s.slot(head).prev = sl.self
	s.slot(0).next = sl.self
	s.index[k] = sl.self
	return sl
}

// alloc returns a free slot, adding one only when none is free.
func (s *shard) alloc() *slot {
	if i := s.free; i != 0 {
		sl := s.slot(i)
		s.free = sl.next
		return sl
	}
	if s.nslots%slotChunk == 0 {
		s.chunks = append(s.chunks, new([slotChunk]slot))
	}
	sl := s.slot(s.nslots)
	sl.self = s.nslots
	s.nslots++
	return sl
}

// slot returns slot i.
func (s *shard) slot(i int32) *slot { return &s.chunks[i/slotChunk][i%slotChunk] }

// evict moves the hand to the first block toward the head, wrapping to the
// tail, whose visited mark was already clear, clearing the marks it passes,
// and removes that block. The shard must hold at least one block.
func (s *shard) evict() {
	i := s.hand
	if i == 0 {
		i = s.slot(0).prev
	}
	for s.slot(i).visited {
		s.slot(i).visited = false
		if i = s.slot(i).prev; i == 0 {
			i = s.slot(0).prev
		}
	}
	s.hand = i
	s.remove(i)
}

// remove unlinks slot i, moving the hand off it toward the head, and drops
// the cache's reference to its block.
func (s *shard) remove(i int32) {
	sl := s.slot(i)
	if s.hand == i {
		s.hand = sl.prev
	}
	s.slot(sl.prev).next = sl.next
	s.slot(sl.next).prev = sl.prev
	delete(s.index, sl.key)
	s.bytes -= int64(len(sl.data))
	if sl.refs.Add(-1) == 0 {
		s.freeSlot(sl)
	}
}

// freeSlot recycles the buffer of a slot nothing references any more and
// puts the slot on the free list.
func (s *shard) freeSlot(sl *slot) {
	s.recycle(sl.data)
	sl.key, sl.data, sl.visited = blockKey{}, nil, false
	sl.prev, sl.next = 0, s.free
	s.free = sl.self
}

// recycle puts a buffer nothing references any more on the free list if the
// list is empty or the buffer fits beside the list and the resident blocks
// in the shard's capacity; otherwise it is left to the garbage collector.
func (s *shard) recycle(buf []byte) {
	buf = buf[:cap(buf)]
	if poison {
		for i := range buf {
			buf[i] = 0xdb
		}
	}
	n := int64(cap(buf))
	if n > 0 && n <= s.capacity && (len(s.spare) == 0 || s.bytes+s.spareBytes+n <= s.capacity) {
		s.spare = append(s.spare, buf[:0])
		s.spareBytes += n
	}
}

// EvictFile drops every cached block belonging to the file id (called when
// a compaction deletes the file).
func (c *Cache) EvictFile(id uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, j := range s.index {
			if k.id == id {
				s.remove(j)
			}
		}
		s.mu.Unlock()
	}
}

// Bytes returns the current cached byte total.
func (c *Cache) Bytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// Hits returns the cumulative hit count.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the cumulative miss count.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Evictions returns the number of blocks evicted to stay within capacity
// (file-targeted evictions via EvictFile are not counted).
func (c *Cache) Evictions() int64 { return c.evictions.Load() }
