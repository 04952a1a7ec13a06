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
	// blockBytes is the sstable page size.
	blockBytes = 4096
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
	// BloomBitsPerKey sizes table Bloom filters; 0 disables. Default 10.
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
	// MaintenanceConcurrency is the size of the maintenance executor pool
	// when auto maintenance is enabled. A pool of 1 steps flushes and
	// compactions (eager range-delete candidates first) in that order — the sequence
	// deterministic benches drive by hand through MaintenanceStep. A pool
	// of n >= 2 is one flush executor plus n-1 compaction executors
	// picking level/key-disjoint jobs concurrently, with TTL-triggered
	// (DPT-critical) jobs taking priority over saturation work. Default: 2
	// when GOMAXPROCS > 1, else 1.
	MaintenanceConcurrency int
	// MaintenanceTickInterval is how often idle executors re-examine the
	// tree (TTL expiry detection is tick-driven). Default 25ms.
	MaintenanceTickInterval time.Duration
	// MaxImmutableMemTables stalls writes when this many immutable
	// memtables are queued for flush (only with auto maintenance; manual
	// drivers are never stalled). Default 4; negative disables stalling.
	MaxImmutableMemTables int
	// L0StallRuns stalls writes when level 0 holds at least this many
	// runs (only with auto maintenance). Default 12; negative disables.
	L0StallRuns int
	// Admission configures token-bucket admission control ahead of the
	// write and read paths (see package admission). The zero value
	// disables the gate entirely; it activates when WriteRate or ReadRate
	// is positive. The pressure feed defaults to the engine's live stall
	// pressure: the imm-memtable and L0 backlogs measured against
	// MaxImmutableMemTables and L0StallRuns, so writes shed before the
	// stall condition engages.
	Admission admission.Config
	// MaxBackgroundRetries bounds consecutive transient failures of a
	// background job (flush, compaction) before the
	// engine gives up and enters read-only mode with a sticky background
	// error. Permanent failures (out of space, corruption) escalate
	// immediately regardless. Default 5; negative retries forever.
	MaxBackgroundRetries int
	// BackgroundRetryBaseDelay and BackgroundRetryMaxDelay bound the
	// capped exponential backoff between retries of a failing background
	// job: base, 2·base, 4·base, … up to the max. Defaults 20ms and 1s.
	BackgroundRetryBaseDelay time.Duration
	BackgroundRetryMaxDelay  time.Duration
	// EventListener, when set, receives every trace event synchronously at
	// the emit site. It must be fast and must not call back into the DB.
	// Events are buffered in a ring of event.DefaultRingSize regardless,
	// readable via DB.RecentEvents / DB.EventsSince.
	EventListener event.Listener
	// Logger, when set, receives diagnostic messages.
	Logger func(format string, args ...any)
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
	if o.MaintenanceConcurrency <= 0 {
		o.MaintenanceConcurrency = 1
		if runtime.GOMAXPROCS(0) > 1 {
			o.MaintenanceConcurrency = 2
		}
	}
	if o.MaintenanceTickInterval <= 0 {
		o.MaintenanceTickInterval = 25 * time.Millisecond
	}
	if o.MaxImmutableMemTables == 0 {
		o.MaxImmutableMemTables = 4
	}
	if o.L0StallRuns == 0 {
		o.L0StallRuns = 12
	}
	if o.MaxBackgroundRetries == 0 {
		o.MaxBackgroundRetries = 5
	}
	if o.BackgroundRetryBaseDelay <= 0 {
		o.BackgroundRetryBaseDelay = 20 * time.Millisecond
	}
	if o.BackgroundRetryMaxDelay <= 0 {
		o.BackgroundRetryMaxDelay = time.Second
	}
	o.Compaction = o.Compaction.WithDefaults()
	return o
}

func (o *Options) logf(format string, args ...any) {
	if o.Logger != nil {
		o.Logger(format, args...)
	}
}
