package core

import (
	"fmt"
	"sync"

	"repro/internal/base"
	"repro/internal/cache"
	"repro/internal/manifest"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// tableCache hands out shared, reference-counted sstable readers. A reader
// stays open while any iterator or compaction references it; once its file
// is evicted (deleted by a compaction) and the last reference drops, the
// reader is closed. All readers share one block cache.
type tableCache struct {
	fs      vfs.FS
	dirname string
	blocks  *cache.Cache // nil disables block caching

	mu     sync.Mutex
	tables map[base.FileNum]*cachedTable
}

// cachedTable is one open table and its pin count. acquire hands it out and
// release takes it back; nothing else is needed to return a pin, so a point
// lookup pins and unpins a table without allocating.
type cachedTable struct {
	fn      base.FileNum
	reader  *sstable.Reader
	refs    int
	evicted bool
}

func newTableCache(fs vfs.FS, dirname string, blockCacheBytes int64) *tableCache {
	c := &tableCache{fs: fs, dirname: dirname, tables: make(map[base.FileNum]*cachedTable)}
	if blockCacheBytes > 0 {
		c.blocks = cache.New(blockCacheBytes)
	}
	return c
}

// acquire pins the table's reader, opening it on first use. The caller must
// hand the result to release exactly once when done with the reader.
func (c *tableCache) acquire(fn base.FileNum) (*cachedTable, error) {
	c.mu.Lock()
	ct, ok := c.tables[fn]
	if ok {
		ct.refs++
		c.mu.Unlock()
		return ct, nil
	}
	c.mu.Unlock()

	// Open outside the lock; racing opens are deduplicated below.
	f, err := c.fs.Open(manifest.MakeFilename(c.dirname, manifest.FileTypeTable, fn))
	if err != nil {
		return nil, err
	}
	r, err := sstable.Open(f)
	if err != nil {
		vfs.BestEffortClose(f)
		return nil, fmt.Errorf("core: opening table %s: %w", fn, err)
	}
	if c.blocks != nil {
		r.SetCache(c.blocks, uint64(fn))
	}

	c.mu.Lock()
	if existing, ok := c.tables[fn]; ok {
		existing.refs++
		c.mu.Unlock()
		vfs.BestEffortClose(r)
		return existing, nil
	}
	ct = &cachedTable{fn: fn, reader: r, refs: 1}
	c.tables[fn] = ct
	c.mu.Unlock()
	return ct, nil
}

// release drops a pin taken by acquire.
func (c *tableCache) release(ct *cachedTable) {
	c.mu.Lock()
	ct.refs--
	closeNow := ct.evicted && ct.refs == 0
	if closeNow {
		delete(c.tables, ct.fn)
	}
	c.mu.Unlock()
	if closeNow {
		vfs.BestEffortClose(ct.reader)
	}
}

// evict marks a deleted file's reader for closure once unreferenced and
// drops its cached blocks.
func (c *tableCache) evict(fn base.FileNum) {
	if c.blocks != nil {
		c.blocks.EvictFile(uint64(fn))
	}
	c.mu.Lock()
	ct, ok := c.tables[fn]
	if !ok {
		c.mu.Unlock()
		return
	}
	ct.evicted = true
	closeNow := ct.refs == 0
	if closeNow {
		delete(c.tables, fn)
	}
	c.mu.Unlock()
	if closeNow {
		vfs.BestEffortClose(ct.reader)
	}
}

// close releases every cached reader regardless of refs (DB shutdown).
func (c *tableCache) close() {
	c.mu.Lock()
	tables := c.tables
	c.tables = make(map[base.FileNum]*cachedTable)
	c.mu.Unlock()
	for _, ct := range tables {
		vfs.BestEffortClose(ct.reader)
	}
}
