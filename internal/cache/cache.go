// Package cache implements the sharded LRU block cache that sits between
// sstable readers and the filesystem. Blocks are keyed by (file id, block
// offset); the cache holds verified, decoded block bytes so hot read paths
// skip both I/O and checksum work.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

const numShards = 16

// Cache is a fixed-capacity, sharded LRU over immutable block contents.
// It is safe for concurrent use.
type Cache struct {
	shards    [numShards]shard
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type blockKey struct {
	id  uint64
	off uint64
}

type entry struct {
	key  blockKey
	data []byte
}

type shard struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	table    map[blockKey]*list.Element
	lru      *list.List // front = most recently used
}

// New returns a cache bounded at capacity bytes (split evenly across
// shards). A capacity <= 0 yields a cache that stores nothing.
func New(capacity int64) *Cache {
	c := &Cache{}
	per := capacity / numShards
	for i := range c.shards {
		c.shards[i] = shard{
			capacity: per,
			table:    make(map[blockKey]*list.Element),
			lru:      list.New(),
		}
	}
	return c
}

func (c *Cache) shard(k blockKey) *shard {
	h := k.id*0x9e3779b97f4a7c15 ^ k.off*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return &c.shards[h%numShards]
}

// Get returns the cached block, if present. The returned slice is shared
// and must not be mutated.
func (c *Cache) Get(id, off uint64) ([]byte, bool) {
	k := blockKey{id, off}
	s := c.shard(k)
	s.mu.Lock()
	el, ok := s.table[k]
	var data []byte
	if ok {
		s.lru.MoveToFront(el)
		// Read under the lock: a concurrent Put of the same block replaces
		// the entry's data in place.
		data = el.Value.(*entry).data
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
// cached. A block is immutable for as long as anything references it: the
// cache never writes into or recycles a buffer, eviction only drops its
// reference, so a slice into a block a Get returned stays valid after the
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
	if size > s.capacity {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.table[k]; ok {
		s.lru.MoveToFront(el)
		old := el.Value.(*entry)
		s.bytes += size - int64(len(old.data))
		old.data = data
	} else {
		el := s.lru.PushFront(&entry{key: k, data: data})
		s.table[k] = el
		s.bytes += size
	}
	for s.bytes > s.capacity {
		back := s.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.table, victim.key)
		s.bytes -= int64(len(victim.data))
		c.evictions.Add(1)
	}
}

// EvictFile drops every cached block belonging to the file id (called when
// a compaction deletes the file).
func (c *Cache) EvictFile(id uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, el := range s.table {
			if k.id == id {
				s.bytes -= int64(len(el.Value.(*entry).data))
				s.lru.Remove(el)
				delete(s.table, k)
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
