// Package shard partitions the keyspace across N independent engine
// instances behind one Router. Each shard is a complete core.DB — its own
// WAL, memtables, levels, maintenance executors, and admission controller —
// so commit pipelines and compaction work scale across cores while the
// paper's delete-persistence guarantee (DPT) holds per shard exactly as it
// does for a single tree: every shard runs its own FADE against the shared
// clock, and a tombstone routed to shard i only ever shadows data on shard
// i.
//
// Routing is a pure function of the user key (FNV-1a hash modulo the shard
// count), so point operations touch exactly one shard. Scans and secondary
// range deletes fan out to every shard: a scan merges the per-shard
// iterators through the engine's k-way heap (package iterator), and a range
// delete lands one range tombstone per shard because the secondary delete
// key is unrelated to the routing hash — any shard may hold covered values.
//
// The shard count is fixed at store creation and recorded in a SHARDS meta
// file; reopening with a different explicit count fails rather than
// silently mis-routing keys hashed under the old modulus.
package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/base"
	"repro/internal/core"
	"repro/internal/manifest"
	"repro/internal/metrics"
	"repro/internal/vfs"
)

// metaMagic is the first line of the meta file; versioned so a future
// resharding format can be detected.
const metaMagic = "acheron-shards v1"

// MaxShards bounds the shard count; far above any sane configuration, it
// exists so a corrupt meta file cannot make Open allocate unboundedly.
const MaxShards = 1024

// Router partitions one keyspace across independent engine shards: hash
// routing for point operations, fan-out for scans, batches, range deletes,
// and lifecycle operations.
type Router struct {
	fs     vfs.FS
	dir    string
	shards []*core.DB

	// mu guards the router lifecycle (closed) and serializes snapshot
	// creation across shards. It is taken strictly above the per-shard
	// engine locks: fan-outs that hold it call into shard commit and state
	// paths.
	//
	// acheron:locks order shard.Router.mu < core.commitPipeline.commitMu
	// acheron:locks order shard.Router.mu < core.DB.mu
	mu     sync.Mutex
	closed bool

	registryOnce sync.Once
	registry     *metrics.Registry
}

// shardDirName returns the subdirectory for shard i.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// readMeta loads the persisted shard count, reporting whether a meta file
// exists.
func readMeta(fs vfs.FS, dir string) (int, bool, error) {
	path := manifest.MakeFilename(dir, manifest.FileTypeShards, 0)
	if !fs.Exists(path) {
		return 0, false, nil
	}
	f, err := fs.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer vfs.BestEffortClose(f)
	size, err := f.Size()
	if err != nil {
		return 0, false, err
	}
	if size > 256 {
		return 0, false, fmt.Errorf("shard: meta file %s implausibly large (%d bytes)", path, size)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), buf); err != nil {
		return 0, false, err
	}
	lines := strings.Split(strings.TrimSpace(string(buf)), "\n")
	if len(lines) != 2 || lines[0] != metaMagic {
		return 0, false, fmt.Errorf("shard: corrupt meta file %s", path)
	}
	n, err := strconv.Atoi(strings.TrimSpace(lines[1]))
	if err != nil || n < 1 || n > MaxShards {
		return 0, false, fmt.Errorf("shard: corrupt meta file %s: bad shard count %q", path, lines[1])
	}
	return n, true, nil
}

// writeMeta persists the shard count durably.
func writeMeta(fs vfs.FS, dir string, n int) error {
	f, err := fs.Create(manifest.MakeFilename(dir, manifest.FileTypeShards, 0))
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%s\n%d\n", metaMagic, n); err != nil {
		vfs.BestEffortClose(f)
		return err
	}
	if err := f.Sync(); err != nil {
		vfs.BestEffortClose(f)
		return err
	}
	return f.Close()
}

// Open opens (creating if necessary) a sharded store rooted at dirname.
// opts.Shards picks the shard count for a new store; on reopen 0 adopts the
// persisted count and any other value must match it. Every other option
// applies to each shard independently — memtable and cache budgets are per
// shard, and opts.Admission instantiates one controller per shard.
func Open(dirname string, opts core.Options) (*Router, error) {
	fs := opts.FS
	if fs == nil {
		fs = vfs.OSFS{}
		opts.FS = fs
	}
	if opts.Shards > MaxShards {
		return nil, fmt.Errorf("shard: Shards=%d exceeds the maximum %d", opts.Shards, MaxShards)
	}
	persisted, havePersisted, err := readMeta(fs, dirname)
	if err != nil {
		return nil, err
	}
	if !havePersisted && fs.Exists(manifest.MakeFilename(dirname, manifest.FileTypeCurrent, 0)) {
		return nil, fmt.Errorf("shard: %s is a single-engine store; open it with core.Open (acheron.Open)", dirname)
	}
	if err := fs.MkdirAll(dirname); err != nil {
		return nil, err
	}
	n := opts.Shards
	switch {
	case havePersisted && n <= 0:
		n = persisted
	case havePersisted && n != persisted:
		// Reopening under a different modulus would route existing keys to
		// the wrong shards; resharding is a rewrite, not an Open flag.
		return nil, fmt.Errorf("shard: store %s has %d shards; opened with Shards=%d (resharding is not supported)", dirname, persisted, n)
	case n <= 0:
		n = 1
	}
	if !havePersisted {
		if err := writeMeta(fs, dirname, n); err != nil {
			return nil, err
		}
	}

	r := &Router{fs: fs, dir: dirname, shards: make([]*core.DB, n)}
	shardOpts := opts
	shardOpts.Shards = 0
	for i := range r.shards {
		db, err := core.Open(filepath.Join(dirname, shardDirName(i)), shardOpts)
		if err != nil {
			for j := 0; j < i; j++ {
				_ = r.shards[j].Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r.shards[i] = db
	}
	return r, nil
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// Shard returns shard i's engine, for per-shard inspection (stats, levels,
// admission counters). Mutating through it bypasses routing; don't.
func (r *Router) Shard(i int) *core.DB { return r.shards[i] }

// ShardFor returns the shard index owning key: FNV-1a(key) mod NumShards.
// The hash is stable across processes and platforms; it is part of the
// on-disk contract once a store is created.
func (r *Router) ShardFor(key []byte) int {
	if len(r.shards) == 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(len(r.shards)))
}

// route returns the engine owning key.
func (r *Router) route(key []byte) *core.DB { return r.shards[r.ShardFor(key)] }

// fanOut runs fn once per shard, concurrently when there is more than one,
// and joins the per-shard errors.
func (r *Router) fanOut(fn func(i int, db *core.DB) error) error {
	if len(r.shards) == 1 {
		return fn(0, r.shards[0])
	}
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i, db := range r.shards {
		wg.Add(1)
		go func(i int, db *core.DB) {
			defer wg.Done()
			errs[i] = fn(i, db)
		}(i, db)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Put inserts or updates key on its owning shard.
func (r *Router) Put(key, value []byte) error { return r.PutCtx(context.Background(), key, value) }

// PutCtx is Put honoring ctx inside admission, stalls, and group commit.
func (r *Router) PutCtx(ctx context.Context, key, value []byte) error {
	return r.route(key).PutCtx(ctx, key, value)
}

// Get returns the value for key from its owning shard.
func (r *Router) Get(key []byte) ([]byte, error) { return r.GetCtx(context.Background(), key) }

// GetCtx is Get honoring ctx.
func (r *Router) GetCtx(ctx context.Context, key []byte) ([]byte, error) {
	return r.route(key).GetCtx(ctx, key)
}

// GetAt reads key as of snap (nil reads the latest state).
func (r *Router) GetAt(key []byte, snap *Snapshot) ([]byte, error) {
	return r.GetAtCtx(context.Background(), key, snap)
}

// GetAtCtx is GetAt honoring ctx.
func (r *Router) GetAtCtx(ctx context.Context, key []byte, snap *Snapshot) ([]byte, error) {
	i := r.ShardFor(key)
	return r.shards[i].GetAtCtx(ctx, key, snap.sub(i))
}

// Delete writes a point tombstone on key's owning shard; FADE on that shard
// persists it within the DPT.
func (r *Router) Delete(key []byte) error { return r.DeleteCtx(context.Background(), key) }

// DeleteCtx is Delete honoring ctx.
func (r *Router) DeleteCtx(ctx context.Context, key []byte) error {
	return r.route(key).DeleteCtx(ctx, key)
}

// DeleteSecondaryRange drops every record whose secondary delete key falls
// in [lo, hi). The secondary key is unrelated to the routing hash, so the
// range tombstone fans out to every shard; each shard's FADE then bounds
// its share of the erasure by the DPT independently. The fan-out commits
// concurrently and is not atomic across shards: a crash mid-fan-out can
// leave the tombstone on a subset (each shard's WAL makes its own commit
// durable), in which case reissuing the delete is idempotent.
func (r *Router) DeleteSecondaryRange(lo, hi base.DeleteKey) error {
	return r.DeleteSecondaryRangeCtx(context.Background(), lo, hi)
}

// DeleteSecondaryRangeCtx is DeleteSecondaryRange honoring ctx on every
// shard's commit path.
func (r *Router) DeleteSecondaryRangeCtx(ctx context.Context, lo, hi base.DeleteKey) error {
	return r.fanOut(func(_ int, db *core.DB) error { return db.DeleteSecondaryRangeCtx(ctx, lo, hi) })
}

// Apply commits the batch. Operations are split by routing hash into one
// sub-batch per shard; each sub-batch commits atomically (one WAL record,
// one visibility step) on its shard, and the sub-batches commit
// concurrently. Atomicity is per shard only — a reader racing the fan-out
// can observe one shard's portion before another's.
func (r *Router) Apply(b *core.Batch) error { return r.ApplyCtx(context.Background(), b) }

// ApplyCtx is Apply honoring ctx on every shard's commit path.
func (r *Router) ApplyCtx(ctx context.Context, b *core.Batch) error {
	if b.Len() == 0 {
		return nil
	}
	if len(r.shards) == 1 {
		return r.shards[0].ApplyCtx(ctx, b)
	}
	subs := r.routeBatch(b)
	return r.fanOut(func(i int, db *core.DB) error {
		if subs[i] == nil {
			return nil
		}
		return db.ApplyCtx(ctx, subs[i])
	})
}

// routeBatch splits b by routing hash: subs[i] holds shard i's operations,
// in b's order, and is nil when it has none.
func (r *Router) routeBatch(b *core.Batch) []*core.Batch {
	// A first pass sizes each sub-batch, so that filling it allocates nothing.
	sizes := make([]struct{ ops, bytes int }, len(r.shards))
	b.Ops(func(_ base.Kind, key, value []byte) {
		sz := &sizes[r.ShardFor(key)]
		sz.ops++
		sz.bytes += len(key) + len(value)
	})
	subs := make([]*core.Batch, len(r.shards))
	for i, sz := range sizes {
		if sz.ops > 0 {
			subs[i] = core.NewBatch()
			subs[i].Grow(sz.ops, sz.bytes)
		}
	}
	b.Ops(func(kind base.Kind, key, value []byte) {
		i := r.ShardFor(key)
		if kind == base.KindDelete {
			subs[i].Delete(key)
		} else {
			subs[i].Put(key, value)
		}
	})
	return subs
}

// Snapshot pins a point-in-time view of every shard. The per-shard
// snapshots are taken sequentially under the router lock, so the view is a
// vector of per-shard consistent points, not one global cut: an Apply
// fanning out concurrently with NewSnapshot may be captured on some shards
// and not others. Within any single shard the usual snapshot guarantees
// hold (never a half-applied batch).
type Snapshot struct {
	snaps []*core.Snapshot
}

// sub returns the per-shard snapshot for shard i; nil when s is nil so
// "latest state" reads pass through.
func (s *Snapshot) sub(i int) *core.Snapshot {
	if s == nil {
		return nil
	}
	return s.snaps[i]
}

// NewSnapshot captures a per-shard snapshot vector.
func (r *Router) NewSnapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{snaps: make([]*core.Snapshot, len(r.shards))}
	for i, db := range r.shards {
		s.snaps[i] = db.NewSnapshot()
	}
	return s
}

// Release unpins the snapshot on every shard.
func (s *Snapshot) Release() {
	for _, snap := range s.snaps {
		snap.Release()
	}
}

// Flush flushes every shard's memtables.
func (r *Router) Flush() error {
	return r.fanOut(func(_ int, db *core.DB) error { return db.Flush() })
}

// MaintenanceStep runs at most one maintenance job per shard, reporting
// whether any shard did work. Deterministic drivers loop until it returns
// false.
func (r *Router) MaintenanceStep() (bool, error) {
	var (
		mu   sync.Mutex
		done bool
	)
	err := r.fanOut(func(_ int, db *core.DB) error {
		did, err := db.MaintenanceStep()
		if did {
			mu.Lock()
			done = true
			mu.Unlock()
		}
		return err
	})
	return done, err
}

// WaitIdle blocks until every shard's maintenance backlog drains.
func (r *Router) WaitIdle() error {
	return r.fanOut(func(_ int, db *core.DB) error { return db.WaitIdle() })
}

// CompactAll fully compacts every shard.
func (r *Router) CompactAll() error { return r.CompactAllCtx(context.Background()) }

// CompactAllCtx is CompactAll honoring ctx on every shard.
func (r *Router) CompactAllCtx(ctx context.Context) error {
	return r.fanOut(func(_ int, db *core.DB) error { return db.CompactAllCtx(ctx) })
}

// CheckpointCtx writes a self-contained, openable copy of the sharded store
// to destDir: one checkpoint per shard in the matching subdirectory plus a
// SHARDS meta file, so shard.Open(destDir, ...) works directly. A context
// error leaves destDir partial; discard it.
func (r *Router) CheckpointCtx(ctx context.Context, destDir string) error {
	if err := r.fs.MkdirAll(destDir); err != nil {
		return err
	}
	err := r.fanOut(func(i int, db *core.DB) error {
		return db.CheckpointCtx(ctx, filepath.Join(destDir, shardDirName(i)))
	})
	if err != nil {
		return err
	}
	return writeMeta(r.fs, destDir, len(r.shards))
}

// Close closes every shard, concurrently, joining their errors. Ops queued
// on any shard unblock with ErrClosed exactly as on a single engine; a
// second Close returns ErrClosed.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return core.ErrClosed
	}
	r.closed = true
	err := r.fanOut(func(_ int, db *core.DB) error { return db.Close() })
	r.mu.Unlock()
	return err
}

// Stats returns each shard's live stats, indexed by shard. The fields are
// live metric handles, not a copy.
func (r *Router) Stats() []*core.Stats {
	out := make([]*core.Stats, len(r.shards))
	for i, db := range r.shards {
		out[i] = db.Stats()
	}
	return out
}

// Levels sums the per-level tree shape across shards.
func (r *Router) Levels() [manifest.NumLevels]core.LevelInfo {
	var out [manifest.NumLevels]core.LevelInfo
	for _, db := range r.shards {
		levels := db.Levels()
		for l := range levels {
			out[l].Runs += levels[l].Runs
			out[l].Files += levels[l].Files
			out[l].Bytes += levels[l].Bytes
			out[l].Tombstones += levels[l].Tombstones
		}
	}
	return out
}

// DiskSize sums the shards' live table bytes.
func (r *Router) DiskSize() uint64 {
	var total uint64
	for _, db := range r.shards {
		total += db.DiskSize()
	}
	return total
}

// PolicyName returns the compaction policy name (identical on every shard).
func (r *Router) PolicyName() string { return r.shards[0].PolicyName() }
