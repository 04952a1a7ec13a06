// Package acheron is a log-structured merge (LSM) storage engine with
// timely, persistent deletes — a from-scratch Go reproduction of
// "Acheron: Persisting Tombstones in LSM Engines" (SIGMOD 2023) and the
// Lethe delete-aware LSM design it demonstrates.
//
// Classic LSM engines realize a delete by writing a tombstone and give no
// bound on when the deleted data physically disappears. Acheron adds:
//
//   - A delete persistence threshold (DPT): an upper bound, set in
//     Options.Compaction.DPT, on the time between issuing a delete and the
//     physical erasure of every shadowed version plus the tombstone itself.
//   - FADE compaction: the DPT is partitioned into per-level TTLs; a file
//     whose oldest tombstone overstays its budget triggers a delete-driven
//     compaction, and saturated levels prefer evicting tombstone-dense
//     files.
//   - KiWi secondary range deletes: values carry a secondary "delete key"
//     (Options.DeleteKeyFunc, e.g. a timestamp); with Options.PagesPerTile
//     > 1, sstables weave pages ordered by delete key inside sort-ordered
//     tiles, so DeleteSecondaryRange can drop whole pages — or whole files
//     — without a full tree merge.
//
// The tree's layout is one setting, Options.Compaction.Policy: leveled,
// size-tiered or lazy-leveling differ only in where the region kept as a
// single sorted run per level starts, and share one picker and the FADE
// trigger, so the DPT holds under each. A store may be reopened under
// another policy; compaction converges it to the new shape.
//
// # Quick start
//
//	db, err := acheron.Open(dir, acheron.Options{
//		Compaction: acheron.CompactionOptions{DPT: acheron.Duration(time.Hour)},
//	})
//	if err != nil { ... }
//	defer db.Close()
//	db.Put([]byte("k"), []byte("v"))
//	v, err := db.Get([]byte("k"))
//	db.Delete([]byte("k")) // physically erased within one hour
//
// The engine is durable (write-ahead log + manifest), supports snapshots
// and range iteration, and exposes detailed statistics including the
// per-tombstone persistence latency distribution.
//
// Range scans use a per-version cached sorted view (REMIX-style) so
// steady-state iteration advances a single cursor instead of a k-way heap.
// A view is built once scans of its version have earned it — stepped over
// as many entries as the version holds — so a tree that changes between
// short scans never pays for views it would not reuse; disable with
// Options.DisableReadViews. A prefix scan (IterOptions.Prefix) is a scan
// bounded by the prefix and its successor, served the same way.
package acheron

import (
	"repro/internal/admission"
	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/vfs"
)

// DB is an open Acheron store. See the core engine for the full method
// set: Put, Get, Delete, DeleteSecondaryRange, NewIter, NewSnapshot, Flush,
// CompactAll, MaintenanceStep, WaitIdle, Stats, Levels, DiskSize, Close.
// Every foreground operation also has a context-honoring variant (PutCtx,
// GetCtx, DeleteCtx, ApplyCtx, CheckpointCtx, CompactAllCtx, ...) whose
// deadline/cancel is observed inside admission control, write stalls, and
// the group-commit queue.
type DB = core.DB

// Options configure a store; the zero value works.
type Options = core.Options

// IterOptions configure a range iterator.
type IterOptions = core.IterOptions

// Iter iterates live keys in ascending order.
type Iter = core.Iter

// Snapshot pins a point-in-time view.
type Snapshot = core.Snapshot

// Batch accumulates writes committed atomically by DB.Apply.
type Batch = core.Batch

// Stats exposes the engine's counters and histograms, including
// PersistenceLatency — the paper's headline metric.
type Stats = core.Stats

// JobInfo describes one completed maintenance job — id, kind, trigger,
// levels, run window, bytes — as returned by DB.RecentMaintJobs.
type JobInfo = core.JobInfo

// JobKind classifies maintenance jobs (flush, compaction); a compaction's
// Trigger says why it ran, the KiWi eager erase included.
type JobKind = core.JobKind

// CompactionOptions select the layout policy, picker, size ratio and the
// DPT.
type CompactionOptions = compaction.Options

// PolicyKind selects a built-in compaction policy in CompactionOptions.
type PolicyKind = compaction.PolicyKind

// Built-in compaction policies.
const (
	// PolicyDefault, the zero value, selects PolicyLeveled.
	PolicyDefault = compaction.PolicyDefault
	// PolicyLeveled keeps one sorted run per level below L0.
	PolicyLeveled = compaction.PolicyLeveled
	// PolicySizeTiered allows SizeRatio runs per level, merging a level
	// wholesale when it fills.
	PolicySizeTiered = compaction.PolicySizeTiered
	// PolicyLazyLeveling tiers the upper levels and levels the last one
	// (the Dostoevsky hybrid).
	PolicyLazyLeveling = compaction.PolicyLazyLeveling
)

// ParsePolicyKind parses a policy name ("leveled", "size-tiered",
// "lazy-leveling"; "" and "default" select PolicyDefault) into a
// PolicyKind, reporting whether the name was recognized.
func ParsePolicyKind(s string) (PolicyKind, bool) { return compaction.ParsePolicyKind(s) }

// Event is one structured trace event: an operation begin/end, a write
// stall, a maintenance-job lifecycle step, a file create/delete, or a
// checkpoint. Events are delivered to Options.EventListener and buffered in
// a ring readable via DB.RecentEvents / DB.EventsSince.
type Event = event.Event

// EventType discriminates trace events.
type EventType = event.Type

// EventListener receives every trace event synchronously at the emit site.
// It must be fast and must not call back into the DB.
type EventListener = event.Listener

// Trace event types.
const (
	EventOpBegin         = event.OpBegin
	EventOpEnd           = event.OpEnd
	EventStallBegin      = event.StallBegin
	EventStallEnd        = event.StallEnd
	EventStallTimeout    = event.StallTimeout
	EventAdmissionReject = event.AdmissionReject
	EventJobClaim        = event.JobClaim
	EventJobCommit       = event.JobCommit
	EventJobRetry        = event.JobRetry
	EventJobError        = event.JobError
	EventFileCreate      = event.FileCreate
	EventFileDelete      = event.FileDelete
	EventCheckpoint      = event.Checkpoint
)

// MetricsRegistry names every engine metric for exposition; DB.Registry
// returns the store's instance, which renders Prometheus text (WriteTo) or
// a JSON document (WriteJSON).
type MetricsRegistry = metrics.Registry

// Compaction pickers.
const (
	// PickMinOverlap is the delete-oblivious baseline.
	PickMinOverlap = compaction.PickMinOverlap
	// PickFADE is the delete-aware picker (expired TTLs first, then
	// tombstone density).
	PickFADE = compaction.PickFADE
	// PickOldestTombstone is the FADE tie-break ablation.
	PickOldestTombstone = compaction.PickOldestTombstone
)

// TTL split strategies (how the DPT is divided across levels).
const (
	// SplitExponential is the Lethe allocation (level i gets ∝ T^i).
	SplitExponential = compaction.SplitExponential
	// SplitUniform divides the DPT evenly (ablation).
	SplitUniform = compaction.SplitUniform
)

// Timestamp is a point in engine time (nanoseconds on the store's clock).
type Timestamp = base.Timestamp

// Duration is a span of engine time.
type Duration = base.Duration

// DeleteKey is the secondary key targeted by DeleteSecondaryRange.
type DeleteKey = base.DeleteKey

// DeleteKeyExtractor derives a DeleteKey from a record's value.
type DeleteKeyExtractor = base.DeleteKeyExtractor

// Clock abstracts the engine's time source.
type Clock = base.Clock

// LogicalClock is a deterministic, manually advanced Clock for tests and
// benchmarks.
type LogicalClock = base.LogicalClock

// FS abstracts the filesystem beneath the store.
type FS = vfs.FS

// NewMemFS returns an in-memory filesystem with byte-level accounting,
// suitable for tests and amplification measurements.
func NewMemFS() *vfs.MemFS { return vfs.NewMemFS() }

// ErrNotFound is returned by Get for missing or deleted keys.
var ErrNotFound = core.ErrNotFound

// ErrClosed is returned by operations issued against a closed store,
// including writers still queued for admission or group commit when Close
// ran. Match with errors.Is.
var ErrClosed = core.ErrClosed

// ErrBackgroundError wraps every write rejected because a permanent
// background failure (ENOSPC, corruption, retry exhaustion) turned the
// store read-only. The cause stays in the chain; DB.BackgroundError
// returns it, and reopening the store is the only recovery.
var ErrBackgroundError = core.ErrBackgroundError

// ErrOverloaded wraps every operation rejected by admission control
// (Options.Admission): the pressure gate shed it, or its projected token
// wait exceeded the context deadline or the configured maximum queue time.
// Rejections fail in microseconds by design; match with errors.Is. When a
// context deadline caused the rejection the chain also wraps
// context.DeadlineExceeded.
var ErrOverloaded = core.ErrOverloaded

// AdmissionConfig configures token-bucket admission control; set it in
// Options.Admission. The zero value disables the gate.
type AdmissionConfig = admission.Config

// AdmissionController is a live admission gate; DB.Admission returns the
// store's instance (nil when Options.Admission is disabled).
type AdmissionController = admission.Controller

// Admission classes: reads and writes draw from independent token buckets.
const (
	AdmissionRead  = admission.ClassRead
	AdmissionWrite = admission.ClassWrite
)

// NewBatch returns an empty write batch.
func NewBatch() *Batch { return core.NewBatch() }

// Open opens (creating if necessary) a store rooted at dirname.
func Open(dirname string, opts Options) (*DB, error) {
	return core.Open(dirname, opts)
}

// ShardedDB partitions the keyspace across Options.Shards independent
// engine instances: hash routing for point operations, merged cross-shard
// iterators for scans, fan-out for secondary range deletes, batches, and
// lifecycle operations. Each shard has its own WAL, memtables, levels,
// maintenance executors, and admission controller, and FADE enforces the
// delete persistence threshold per shard.
type ShardedDB = shard.Router

// ShardedSnapshot pins a per-shard snapshot vector (a consistent point on
// every shard, not one global cut).
type ShardedSnapshot = shard.Snapshot

// ShardedIter iterates live keys across all shards in ascending order,
// merged through the engine's k-way heap.
type ShardedIter = shard.Iter

// ShardedIterOptions configure a cross-shard iterator.
type ShardedIterOptions = shard.IterOptions

// ShardedOpen opens (creating if necessary) a sharded store rooted at
// dirname. Options.Shards picks the shard count for a new store; on reopen
// 0 adopts the persisted count, and any other value must match it. With
// Shards <= 1 the store behaves exactly like a single engine behind the
// router API.
func ShardedOpen(dirname string, opts Options) (*ShardedDB, error) {
	return shard.Open(dirname, opts)
}
