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

// tableCache hands out shared sstable readers, one per open table, all over
// one block cache. It pins nothing: a reader is asked for only under a
// reference to a version that holds its file (manifest.Version.Unref), so
// when the file dies nobody can be using the reader, and evict closes it.
type tableCache struct {
	fs      vfs.FS
	dirname string
	blocks  *cache.Cache // nil disables block caching

	mu     sync.Mutex
	tables map[base.FileNum]*sstable.Reader
	// closed is set by close: from then on get opens nothing, so an
	// iterator outliving its store cannot leave a reader no one closes.
	closed bool
}

func newTableCache(fs vfs.FS, dirname string, blockCacheBytes int64) *tableCache {
	c := &tableCache{fs: fs, dirname: dirname, tables: make(map[base.FileNum]*sstable.Reader)}
	if blockCacheBytes > 0 {
		c.blocks = cache.New(blockCacheBytes)
	}
	return c
}

// get returns the table's reader, opening it on first use. The caller must
// hold a reference to a version holding the file for as long as it uses the
// reader. Once the cache is closed it fails with ErrClosed.
func (c *tableCache) get(fn base.FileNum) (*sstable.Reader, error) {
	c.mu.Lock()
	r, ok := c.tables[fn]
	closed := c.closed
	c.mu.Unlock()
	if ok {
		return r, nil
	}
	if closed {
		return nil, fmt.Errorf("core: opening table %s: %w", fn, ErrClosed)
	}

	// Open outside the lock; racing opens are deduplicated below.
	f, err := c.fs.Open(manifest.MakeFilename(c.dirname, manifest.FileTypeTable, fn))
	if err != nil {
		return nil, err
	}
	r, err = sstable.Open(f)
	if err != nil {
		vfs.BestEffortClose(f)
		return nil, fmt.Errorf("core: opening table %s: %w", fn, err)
	}
	if c.blocks != nil {
		r.SetCache(c.blocks, uint64(fn))
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		vfs.BestEffortClose(r)
		return nil, fmt.Errorf("core: opening table %s: %w", fn, ErrClosed)
	}
	if existing, ok := c.tables[fn]; ok {
		c.mu.Unlock()
		vfs.BestEffortClose(r)
		return existing, nil
	}
	c.tables[fn] = r
	c.mu.Unlock()
	return r, nil
}

// evict closes a dead file's reader and drops its cached blocks.
func (c *tableCache) evict(fn base.FileNum) {
	if c.blocks != nil {
		c.blocks.EvictFile(uint64(fn))
	}
	c.mu.Lock()
	r, ok := c.tables[fn]
	delete(c.tables, fn)
	c.mu.Unlock()
	if ok {
		vfs.BestEffortClose(r)
	}
}

// close releases every cached reader and makes get fail from then on (DB
// shutdown).
func (c *tableCache) close() {
	c.mu.Lock()
	tables := c.tables
	c.tables = make(map[base.FileNum]*sstable.Reader)
	c.closed = true
	c.mu.Unlock()
	for _, r := range tables {
		vfs.BestEffortClose(r)
	}
}
