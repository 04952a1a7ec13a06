package readview

import (
	"sync"

	"repro/internal/metrics"
)

// CacheStats collects the cache's observable behaviour into caller-owned
// counters (the engine registers them under its metric registry). Nil
// fields are simply not counted. Every Get counts as exactly one of Builds,
// Hits or Deferred.
type CacheStats struct {
	// Builds counts view constructions (one full merge pass each).
	Builds *metrics.Counter
	// Hits counts Get calls served by an already-built view.
	Hits *metrics.Counter
	// Deferred counts Get calls that returned no view because scans of the
	// version had not yet earned one.
	Deferred *metrics.Counter
	// Invalidations counts cache entries dropped by Invalidate.
	Invalidations *metrics.Counter
}

func (s CacheStats) add(c *metrics.Counter, d int64) {
	if c != nil {
		c.Add(d)
	}
}

// flight is one build attempt; once makes concurrent scans of the same
// version build the view exactly once, with the build running outside the
// cache mutex so a long build never blocks unrelated lookups or
// invalidation.
type flight struct {
	once sync.Once
	view *View
	err  error
}

// entry is the cache's state for one version: the steps view-less scans have
// paid so far and the build they earn. credit, build and gen are guarded by
// Cache.mu.
type entry struct {
	credit uint64
	build  *flight
	gen    uint64
}

// Cache memoizes one View per immutable version, keyed by the version's
// identity (the engine passes the *manifest.Version pointer). A small
// capacity keeps a snapshot scan on a just-replaced version from thrashing
// the current version's view out.
//
// A view is admitted by amortisation (ski rental): the cache builds it only
// once scans of the version have, without it, stepped over as many entries
// as the build itself would — see Get and Credit. A version replaced before
// its scans got that far never pays for a view nobody would have reused.
type Cache struct {
	stats CacheStats
	max   int

	// mu guards the map, the LRU generation stamps and the entries' credit;
	// it is a leaf lock (nothing is acquired while holding it), view builds
	// happen outside it, and the engine invalidates after a version install
	// completes, so no lock is ever held while acquiring it.
	mu      sync.Mutex
	entries map[any]*entry
	gen     uint64
}

// NewCache returns a cache holding at most max versions (minimum 1).
func NewCache(max int, stats CacheStats) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{max: max, stats: stats, entries: make(map[any]*entry)}
}

// Get returns the view for key once it has been earned: when the steps
// credited to key (Credit) have reached cost, the number of entries a build
// merges. Until then it returns (nil, nil) and the caller runs the plain
// merge, crediting what that cost it. The first Get past the threshold
// builds the view with build; concurrent ones wait for that build. A failed
// build returns (nil, err) — callers fall back to the plain merge — and
// keeps the credit, so the next Get retries.
func (c *Cache) Get(key any, cost uint64, build func() (*View, error)) (*View, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		if len(c.entries) >= c.max {
			c.evictOldestLocked()
		}
		e = &entry{build: &flight{}}
		c.entries[key] = e
	}
	c.gen++
	e.gen = c.gen
	f, earned := e.build, e.credit >= cost
	c.mu.Unlock()

	if !earned {
		c.stats.add(c.stats.Deferred, 1)
		return nil, nil
	}
	built := false
	f.once.Do(func() {
		built = true
		f.view, f.err = build()
		c.stats.add(c.stats.Builds, 1)
	})
	if f.err != nil {
		c.mu.Lock()
		if e.build == f {
			e.build = &flight{}
		}
		c.mu.Unlock()
		return nil, f.err
	}
	if !built {
		c.stats.add(c.stats.Hits, 1)
	}
	return f.view, nil
}

// Credit records that a scan of key's version stepped over steps entries
// without a view. It is a no-op for a version the cache no longer tracks:
// the credit of a replaced version dies with its entry.
func (c *Cache) Credit(key any, steps uint64) {
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		e.credit += steps
	}
	c.mu.Unlock()
}

// evictOldestLocked drops the least-recently-used entry. Caller holds mu.
func (c *Cache) evictOldestLocked() {
	var (
		oldKey any
		oldGen uint64
		have   bool
	)
	for k, e := range c.entries {
		if !have || e.gen < oldGen {
			oldKey, oldGen, have = k, e.gen, true
		}
	}
	if have {
		delete(c.entries, oldKey)
	}
}

// Invalidate drops every entry, built view or pending credit alike. The
// engine calls it when a version edit commits: the new current version's
// runs differ, so its scans start earning a view of their own. Iterators
// already holding a view keep it — views are immutable and their versions
// are pinned by the read state.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	n := len(c.entries)
	if n > 0 {
		c.entries = make(map[any]*entry)
	}
	c.mu.Unlock()
	if n > 0 {
		c.stats.add(c.stats.Invalidations, int64(n))
	}
}

// Len returns the number of versions the cache tracks.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
