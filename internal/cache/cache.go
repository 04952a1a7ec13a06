// Package cache implements the sharded SIEVE block cache that sits between
// sstable readers and the filesystem. Blocks are keyed by (file id, block
// offset); the cache holds verified, decoded block bytes so hot read paths
// skip both I/O and checksum work.
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
)

// Cache is a fixed-capacity, sharded SIEVE cache over immutable block
// contents. It is safe for concurrent use.
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
// free slot's next links the free list. Index 0 doubles as "none".
type slot struct {
	key        blockKey
	data       []byte
	prev, next int32 // toward the head, toward the tail
	visited    bool
}

type shard struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	index    map[blockKey]int32 // pointer-free, so the GC does not scan it
	slots    []slot
	free     int32 // first free slot, 0 if none
	hand     int32 // next slot the hand looks at, 0 to start from the tail
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
			slots:    make([]slot, 1),
		}
	}
	return c
}

func (c *Cache) shard(k blockKey) *shard {
	h := k.id*0x9e3779b97f4a7c15 ^ k.off*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return &c.shards[h&c.mask]
}

// Get returns the cached block, if present. The returned slice is shared
// and must not be mutated.
func (c *Cache) Get(id, off uint64) ([]byte, bool) {
	k := blockKey{id, off}
	s := c.shard(k)
	s.mu.Lock()
	i, ok := s.index[k]
	var data []byte
	if ok {
		// Read under the lock: a concurrent Put may free the slot and reuse
		// it for another block.
		s.slots[i].visited = true
		data = s.slots[i].data
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return data, true
}

// Put inserts a block. The cache takes ownership of data; callers must not
// mutate it afterwards. Oversized blocks (bigger than a shard) are not
// cached, and drop the block they would have replaced. A block is immutable
// for as long as anything references it: the cache never writes into or
// recycles a buffer, eviction only drops its reference, so a slice into a block a Get returned stays valid after the
// block is evicted (the engine's point lookups rely on this to return a
// value without copying it out of the block first). The one caller is
// sstable.Reader.readBlock, on a read's miss, with a buffer it allocated for
// the purpose: compaction iterators Get but never Put — their page buffers
// are recycled, and their one pass over files about to be unlinked must not
// evict what reads want.
func (c *Cache) Put(id, off uint64, data []byte) {
	k := blockKey{id, off}
	s := c.shard(k)
	size := int64(len(data))
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[k]; ok {
		s.remove(i) // a replaced block goes back in as a new one
	}
	if size > s.capacity {
		return
	}
	// Make room first, so the hand never takes the block going in.
	for s.bytes+size > s.capacity {
		s.evict()
		c.evictions.Add(1)
	}
	i := s.alloc()
	head := s.slots[0].next
	s.slots[i] = slot{key: k, data: data, next: head}
	s.slots[head].prev = i
	s.slots[0].next = i
	s.index[k] = i
	s.bytes += size
}

// alloc returns a free slot, growing the slot array only when none is free.
func (s *shard) alloc() int32 {
	if i := s.free; i != 0 {
		s.free = s.slots[i].next
		return i
	}
	s.slots = append(s.slots, slot{})
	return int32(len(s.slots) - 1)
}

// evict moves the hand to the first block toward the head, wrapping to the
// tail, whose visited mark was already clear, clearing the marks it passes,
// and removes that block. The shard must hold at least one block.
func (s *shard) evict() {
	i := s.hand
	if i == 0 {
		i = s.slots[0].prev
	}
	for s.slots[i].visited {
		s.slots[i].visited = false
		if i = s.slots[i].prev; i == 0 {
			i = s.slots[0].prev
		}
	}
	s.hand = i
	s.remove(i)
}

// remove unlinks slot i, moving the hand off it toward the head, and frees
// it, dropping the cache's reference to its block.
func (s *shard) remove(i int32) {
	sl := &s.slots[i]
	if s.hand == i {
		s.hand = sl.prev
	}
	s.slots[sl.prev].next = sl.next
	s.slots[sl.next].prev = sl.prev
	delete(s.index, sl.key)
	s.bytes -= int64(len(sl.data))
	*sl = slot{next: s.free}
	s.free = i
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
