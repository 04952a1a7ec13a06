// Package core implements the Acheron storage engine: an LSM tree with
// write-ahead logging, leveled or tiered compaction, and — the paper's
// contribution — timely, persistent deletes. A user-set delete persistence
// threshold (DPT) bounds how long any tombstone may exist; the FADE
// compaction policy partitions the DPT into per-level TTLs and schedules
// delete-driven compactions so every tombstone reaches the last level (and
// physically erases everything it shadows) in time. Secondary-key range
// deletes use the KiWi key-weaving layout to drop whole pages without
// rewriting the tree.
package core

import (
	"runtime"
	"time"

	"repro/internal/admission"
	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/event"
	"repro/internal/vfs"
)

// Tuning values no test, experiment, or workload has needed to change.
const (
	// readViewMaxEntries skips cached-view construction for versions with
	// more entries than this, bounding a view's resident size (2 bytes per
	// entry plus anchors).
	readViewMaxEntries = 4 << 20
	// opSampleInterval: one in this many hot-path operations (Put, Delete,
	// Get, iterator seeks and steps) records latency and emits begin/end
	// trace events. Rare operations (flush, compaction, checkpoint, range
	// deletes, batches) are always instrumented.
	opSampleInterval = 16
)

// osClock is the default wall-clock time source.
type osClock struct{}

func (osClock) Now() base.Timestamp { return base.Timestamp(time.Now().UnixNano()) }

// Options configure a DB. The zero value is usable: OS filesystem, wall
// clock, 4 MiB memtables, standard (non-KiWi) layout, delete-oblivious
// leveling (DPT disabled).
type Options struct {
	// FS is the filesystem; defaults to the OS filesystem.
	FS vfs.FS
	// Clock supplies timestamps for tombstone aging. Defaults to the OS
	// clock; benchmarks install a deterministic logical clock.
	Clock base.Clock

	// MemTableBytes rotates the memtable at this size. Default 4 MiB.
	MemTableBytes int64
	// BloomBitsPerKey sizes table Bloom filters; negative disables them.
	// Default (0) 10.
	BloomBitsPerKey int
	// BlockCacheBytes bounds the shared block cache. Default 8 MiB;
	// negative disables caching.
	BlockCacheBytes int64
	// DisableReadViews turns off the cached sorted views over each
	// version's runs (REMIX-style): with views on — the default — a range
	// scan's steady-state Next advances a single run cursor instead of
	// re-running the k-way heap merge per entry. A view is built once scans
	// of its version have stepped over as many entries as it holds.
	DisableReadViews bool
	// PagesPerTile enables the KiWi layout when > 1: that many delete-
	// key-ordered pages per delete tile. Requires DeleteKeyFunc.
	PagesPerTile int
	// DeleteKeyFunc extracts the secondary delete key from a value.
	// Required for KiWi layouts and secondary range deletes. It must be a
	// pure function, safe for concurrent use: reads, flushes and the
	// maintenance executors call it at once, and so do the two goroutines
	// of a single compaction (the merge and its table writer).
	DeleteKeyFunc base.DeleteKeyExtractor

	// Compaction selects the layout policy, the picker (min-overlap
	// baseline vs FADE), the size ratio, and the DPT.
	Compaction compaction.Options

	// Shards partitions the keyspace across that many independent engine
	// instances when the store is opened through the sharded façade
	// (acheron.ShardedOpen / shard.Open); each shard gets its own WAL,
	// memtable, levels, maintenance executors, and admission controller.
	// core.Open ignores it. 0 means "adopt the on-disk shard count, else
	// 1"; see the shard package for routing and reopen rules.
	Shards int

	// EagerRangeDeletes makes maintenance act on secondary range deletes
	// immediately: fully covered files are dropped by a metadata-only
	// edit and partially covered files are rewritten without their
	// covered pages, instead of waiting for compactions to carry the
	// tombstone down (the KiWi fast path demonstrated by the paper). Both
	// are in-place compaction jobs, trigger "range-delete".
	EagerRangeDeletes bool

	// SyncWrites syncs the WAL before acknowledging every commit instead
	// of syncing on rotation only. Commits are group-committed: concurrent
	// writers that arrive while a sync is in flight share the next one, so
	// the fsync cost amortizes across the group (see Stats.CommitsPerSync).
	SyncWrites bool
	// DisableAutoMaintenance turns off the background maintenance
	// executors; callers drive MaintenanceStep themselves (deterministic
	// benchmarks do this).
	DisableAutoMaintenance bool
	// MaintenanceTickInterval is how often idle executors re-examine the
	// tree (TTL expiry detection is tick-driven). Default 25ms.
	MaintenanceTickInterval time.Duration
	// Admission configures token-bucket admission control ahead of the
	// write and read paths (see package admission). The zero value
	// disables the gate entirely; it activates when WriteRate or ReadRate
	// is positive. The pressure feed defaults to the engine's live stall
	// pressure: the imm-memtable and L0 backlogs measured against their
	// stall limits, so writes shed before the stall condition engages.
	Admission admission.Config
	// EventListener, when set, receives every trace event synchronously at
	// the emit site. It must be fast and must not call back into the DB.
	// Events are buffered in a ring of event.DefaultRingSize regardless,
	// readable via DB.RecentEvents / DB.EventsSince.
	EventListener event.Listener
	// Logger, when set, receives diagnostic messages.
	Logger func(format string, args ...any)

	// tuning replaces defaultTuning when set, by this package's tests only.
	tuning *tuning
}

// tuning is the maintenance pool size, the write-stall limits and the
// background retry policy.
type tuning struct {
	// executors is the pool size: 1 steps MaintenanceStep (flush, then a
	// compaction), the sequence deterministic drivers run by hand; n >= 2
	// is a flush executor and n-1 compaction executors picking disjoint
	// jobs, TTL-triggered (DPT-critical) ones first.
	executors int
	// Writes stall, with auto maintenance only, while maxImm sealed
	// memtables await a flush or level 0 holds l0StallRuns runs; a limit
	// <= 0 never stalls.
	maxImm, l0StallRuns int
	// A background job failing transiently more than maxRetries times in a
	// row (never, if negative) turns the store read-only; the retries back
	// off from retryBase, doubling, up to retryMax.
	maxRetries          int
	retryBase, retryMax time.Duration
}

// The default stall limits and retry policy.
const (
	maxImmutableMemTables, l0StallRuns = 4, 12
	maxBackgroundRetries               = 5
	retryBaseDelay, retryMaxDelay      = 20 * time.Millisecond, time.Second
)

// defaultTuning is every caller's: one executor at one P, otherwise a
// flush and a compaction executor.
func defaultTuning() *tuning {
	t := &tuning{executors: 1, maxImm: maxImmutableMemTables, l0StallRuns: l0StallRuns,
		maxRetries: maxBackgroundRetries, retryBase: retryBaseDelay, retryMax: retryMaxDelay}
	if runtime.GOMAXPROCS(0) > 1 {
		t.executors = 2
	}
	return t
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = vfs.OSFS{}
	}
	if o.Clock == nil {
		o.Clock = osClock{}
	}
	if o.MemTableBytes <= 0 {
		o.MemTableBytes = 4 << 20
	}
	if o.BloomBitsPerKey == 0 {
		o.BloomBitsPerKey = 10
	}
	if o.BlockCacheBytes == 0 {
		o.BlockCacheBytes = 8 << 20
	}
	if o.PagesPerTile <= 0 {
		o.PagesPerTile = 1
	}
	if o.MaintenanceTickInterval <= 0 {
		o.MaintenanceTickInterval = 25 * time.Millisecond
	}
	if o.tuning == nil {
		o.tuning = defaultTuning()
	}
	o.Compaction = o.Compaction.WithDefaults()
	return o
}

func (o *Options) logf(format string, args ...any) {
	if o.Logger != nil {
		o.Logger(format, args...)
	}
}
