package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/base"
	"repro/internal/metrics"
)

// Stats aggregates the engine's observable behaviour: the write/space
// amplification inputs and — central to the paper — delete persistence.
// All fields are safe for concurrent access.
type Stats struct {
	// BytesIngested counts logical user bytes written (keys + values).
	BytesIngested metrics.Counter
	// WALBytes counts bytes appended to the write-ahead log.
	WALBytes metrics.Counter
	// BytesFlushed counts sstable bytes written by memtable flushes.
	BytesFlushed metrics.Counter
	// CompactBytesRead / CompactBytesWritten count compaction I/O.
	CompactBytesRead    metrics.Counter
	CompactBytesWritten metrics.Counter
	// CompactBytesReadByTrigger / CompactBytesWrittenByTrigger break the
	// compaction I/O down by trigger (0=l0, 1=saturation, 2=ttl,
	// 3=range-delete): the TTL rows price the delete-persistence guarantee,
	// per policy, in bytes. The rows partition the totals above.
	CompactBytesReadByTrigger    [4]metrics.Counter
	CompactBytesWrittenByTrigger [4]metrics.Counter

	// Flushes counts memtable flushes; FlushesToL1 counts those of them
	// that merged their memtable straight into level 1, because its
	// tombstones had outlived level 0's TTL budget. Such a flush writes no
	// level-0 table: its bytes are a TTL compaction's, in
	// CompactBytesWritten, and none in BytesFlushed.
	Flushes     metrics.Counter
	FlushesToL1 metrics.Counter
	// CompactionsByTrigger counts compactions by trigger
	// (0=l0, 1=saturation, 2=ttl, 3=range-delete).
	CompactionsByTrigger [4]metrics.Counter
	// TrivialMoves counts metadata-only file moves.
	TrivialMoves metrics.Counter

	// DeletesIssued counts point deletes accepted.
	DeletesIssued metrics.Counter
	// RangeDeletesIssued counts secondary range deletes accepted.
	RangeDeletesIssued metrics.Counter
	// TombstonesPersisted counts point tombstones physically disposed of
	// at the last relevant level — the moment the delete became
	// persistent.
	TombstonesPersisted metrics.Counter
	// TombstonesSuperseded counts tombstones dropped because a newer
	// write made them moot.
	TombstonesSuperseded metrics.Counter
	// RangeTombstonesPersisted counts disposed range tombstones.
	RangeTombstonesPersisted metrics.Counter
	// PersistenceLatency records, per persisted tombstone, the time from
	// delete issue to physical disposal (the paper's headline metric).
	PersistenceLatency metrics.Histogram
	// LiveTombstones gauges point tombstones currently in the tree.
	LiveTombstones metrics.Gauge
	// PagesDropped counts whole KiWi pages elided by range-delete
	// compactions.
	PagesDropped metrics.Counter
	// RangeCoveredDropped counts entries removed because a range
	// tombstone covered them.
	RangeCoveredDropped metrics.Counter
	// ShadowedDropped counts superseded versions discarded by
	// compactions.
	ShadowedDropped metrics.Counter

	// FlushQueueDepth gauges immutable memtables queued for flush; its
	// peak records the worst backlog ever reached.
	FlushQueueDepth metrics.PeakGauge
	// CompactionsInFlight gauges currently running compaction jobs.
	CompactionsInFlight metrics.Gauge
	// FlushLatency records wall-clock nanoseconds per flush job.
	FlushLatency metrics.Histogram
	// JobLatencyByTrigger records wall-clock nanoseconds per compaction
	// job, by trigger (0=l0, 1=saturation, 2=ttl, 3=range-delete). The TTL
	// row is the DPT-critical one: with concurrent executors it must not
	// inherit the latency of in-flight saturation work.
	JobLatencyByTrigger [4]metrics.Histogram
	// WriteStalls counts commits that blocked on backpressure;
	// WriteStallNanos accumulates the total time spent stalled.
	WriteStalls     metrics.Counter
	WriteStallNanos metrics.Counter
	// StallsByCause splits WriteStalls by the saturated resource (indexed
	// by stallCause: 0=imm-memtables, 1=l0-runs); a stall episode observing
	// both backlogs counts under both, so the sum can exceed WriteStalls.
	StallsByCause [numStallCauses]metrics.Counter
	// StallTimeouts counts writers released from the stall gate by their
	// context deadline or cancellation instead of by the backlog clearing.
	StallTimeouts metrics.Counter
	// CommitCancels counts commits withdrawn from the group-commit arrival
	// queue by context cancellation before a leader claimed them.
	CommitCancels metrics.Counter

	// BackgroundErrors counts failed background job attempts (each retry
	// that itself fails counts again). JobRetries counts the retries
	// scheduled for transient failures. ReadOnly is 1 once a sticky
	// background error has flipped the DB read-only, else 0.
	BackgroundErrors metrics.Counter
	JobRetries       metrics.Counter
	ReadOnly         metrics.Gauge

	// Gets, GetHits count point lookups and those that found a live key.
	Gets    metrics.Counter
	GetHits metrics.Counter
	// BloomSkips counts table probes short-circuited by Bloom filters: a
	// standard table's file filter, or every page filter of the KiWi tile
	// the key falls in.
	BloomSkips metrics.Counter
	// TablesProbed counts sstables consulted by point lookups.
	TablesProbed metrics.Counter
	// BloomTruePositives / BloomFalsePositives classify table probes the
	// Bloom filters let through: the key was present (true positive) or
	// absent (false positive — the filters' error budget). Only counted
	// when filters are enabled. A KiWi tile is let through when any one of
	// its h page filters admits the key, so its false-positive rate is up to
	// h times a file filter's at the same bits per key (kiwi_retention's
	// bloom.false_positive_rate went 0.8 % → 3.8 % when page filters
	// replaced the file filter), though each false positive reads one page,
	// not h.
	BloomTruePositives  metrics.Counter
	BloomFalsePositives metrics.Counter

	// WALAppends counts WAL record appends; WALSyncs counts WAL fsyncs.
	WALAppends metrics.Counter
	WALSyncs   metrics.Counter

	// ItersOpened counts iterators opened; IterSeeks counts positioning
	// calls (First/SeekGE) across all iterators.
	ItersOpened metrics.Counter
	IterSeeks   metrics.Counter
	// IterReseeks counts positioning calls beyond an iterator's first: the
	// reuse pattern the Concat same-child fast path and the view cache are
	// built for.
	IterReseeks metrics.Counter
	// IterViewDeferred / IterViewBuilds / IterViewHits /
	// IterViewInvalidations trace the cached-sorted-view lifecycle. Every
	// view-eligible scan counts as exactly one of the first three: deferred
	// while its version's view is not yet earned (it ran the plain merge),
	// the build once it is, a hit for every later scan of that version.
	// Invalidations count cache entries a version install dropped.
	IterViewDeferred      metrics.Counter
	IterViewBuilds        metrics.Counter
	IterViewHits          metrics.Counter
	IterViewInvalidations metrics.Counter
	// IterTablesOpened counts sstable iterators materialized by range
	// scans (Concat children actually opened): a bounded scan opens only
	// the files its bounds reach.
	IterTablesOpened metrics.Counter

	// FilesCreated counts table files installed into a version; FilesDeleted
	// counts the files of a version unlinked once replaced. Outputs that
	// never joined a version — a failed install's, a flush into level 1
	// included, or an in-place rewrite's that changed nothing — are
	// unlinked uncounted, as they were never counted created.
	FilesCreated metrics.Counter
	FilesDeleted metrics.Counter
	// Checkpoints counts completed checkpoints.
	Checkpoints metrics.Counter

	// Per-operation latency histograms (wall-clock nanoseconds) for the
	// public operations: single-record commits (Put/Delete), batch
	// commits, point lookups, and iterator positioning calls. Kept at the
	// tail of the struct: each histogram is ~0.5 KiB of bucket atomics,
	// and placing them here keeps the frequently-incremented counters
	// above on the same few cache lines they occupied before.
	PutLatency      metrics.Histogram
	BatchLatency    metrics.Histogram
	GetLatency      metrics.Histogram
	IterSeekLatency metrics.Histogram
	// IterScanLatency records sampled full-scan step costs: the wall-clock
	// nanoseconds a sampled Next spent producing its entry (including
	// skipped tombstones and shadowed versions).
	IterScanLatency metrics.Histogram

	// WALGroupSize records the member count of each commit group whose
	// records reached the WAL: group commit's amortization factor. The
	// derived ratio WALAppends/WALSyncs (exposed as
	// acheron_commits_per_sync) tells the same story per fsync.
	WALGroupSize metrics.Histogram
	// WALSyncLatency records wall-clock nanoseconds per WAL fsync — the
	// cost each commit group pays exactly once.
	WALSyncLatency metrics.Histogram

	// StallWaitByCause records each stall episode's total duration
	// (nanoseconds) under every cause it observed, so overload dashboards
	// can tell whether the flush backlog or L0 is saturating.
	StallWaitByCause [numStallCauses]metrics.Histogram

	// TombstonesPersistedLate counts the PersistenceLatency samples that
	// exceeded persistenceDeadline, compared exactly as they were recorded.
	// (Here, not beside PersistenceLatency, so no hot counter above moved.)
	TombstonesPersistedLate metrics.Counter
	persistenceDeadline     atomic.Int64

	// CompactMergeWaitNanos and CompactWriterWaitNanos say which of a
	// compaction's two goroutines bounds it: the first sums the time merges
	// waited on their writer goroutine (a writer-bound job), the second the
	// time writers waited for the merge's next batch (a merge-bound job).
	CompactMergeWaitNanos  metrics.Counter
	CompactWriterWaitNanos metrics.Counter

	// ZombieTables gauges table files gone from the current version but
	// still on disk, because an older version a reader (an iterator, a Get,
	// a checkpoint, a scrub or a running job) holds still names them: the
	// bytes a deleted value may hide in past its tombstone's disposal.
	ZombieTables metrics.Gauge
}

// WriteAmplification returns (flushed + compaction-written) / ingested, the
// conventional LSM WA measure. Returns 0 before any ingestion.
func (s *Stats) WriteAmplification() float64 {
	in := s.BytesIngested.Get()
	if in == 0 {
		return 0
	}
	return float64(s.BytesFlushed.Get()+s.CompactBytesWritten.Get()) / float64(in)
}

// CommitsPerSync returns the group-commit amortization ratio: WAL record
// appends per fsync. Returns 0 before any sync (sync-on-rotation-only
// configurations with no rotation yet).
func (s *Stats) CommitsPerSync() float64 {
	syncs := s.WALSyncs.Get()
	if syncs == 0 {
		return 0
	}
	return float64(s.WALAppends.Get()) / float64(syncs)
}

// SetPersistenceDeadline sets what TombstonesPersistedLate is counted against.
// Open sets Compaction.DPT; a caller grading an engine that runs without a DPT
// sets its own before the first delete persists.
func (s *Stats) SetPersistenceDeadline(d base.Duration) { s.persistenceDeadline.Store(int64(d)) }

// PersistedWithin returns the fraction of persisted tombstones whose
// persistence latency was at most the deadline. Returns 1 when none persisted.
func (s *Stats) PersistedWithin() float64 {
	n := s.PersistenceLatency.Count()
	if n == 0 {
		return 1
	}
	return float64(n-s.TombstonesPersistedLate.Get()) / float64(n)
}

// String renders a compact multi-line summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ingested=%d flushed=%d compact_read=%d compact_written=%d wa=%.2f\n",
		s.BytesIngested.Get(), s.BytesFlushed.Get(), s.CompactBytesRead.Get(), s.CompactBytesWritten.Get(), s.WriteAmplification())
	fmt.Fprintf(&b, "flushes=%d to_l1=%d compactions[l0=%d sat=%d ttl=%d rangedel=%d] trivial=%d\n",
		s.Flushes.Get(), s.FlushesToL1.Get(), s.CompactionsByTrigger[0].Get(), s.CompactionsByTrigger[1].Get(), s.CompactionsByTrigger[2].Get(), s.CompactionsByTrigger[3].Get(), s.TrivialMoves.Get())
	fmt.Fprintf(&b, "deletes=%d persisted=%d superseded=%d live_tombstones=%d late=%d p99_persist=%d max_persist=%d\n",
		s.DeletesIssued.Get(), s.TombstonesPersisted.Get(), s.TombstonesSuperseded.Get(), s.LiveTombstones.Get(),
		s.TombstonesPersistedLate.Get(), s.PersistenceLatency.Quantile(0.99), s.PersistenceLatency.Max())
	fmt.Fprintf(&b, "range_deletes=%d range_persisted=%d pages_dropped=%d range_covered_dropped=%d shadowed=%d\n",
		s.RangeDeletesIssued.Get(), s.RangeTombstonesPersisted.Get(), s.PagesDropped.Get(), s.RangeCoveredDropped.Get(), s.ShadowedDropped.Get())
	fmt.Fprintf(&b, "flush_queue=%d peak_flush_queue=%d compactions_in_flight=%d p99_flush_ns=%d\n",
		s.FlushQueueDepth.Get(), s.FlushQueueDepth.Peak(), s.CompactionsInFlight.Get(), s.FlushLatency.Quantile(0.99))
	fmt.Fprintf(&b, "p99_job_ns[l0=%d sat=%d ttl=%d rangedel=%d] write_stalls=%d stall_ns=%d\n",
		s.JobLatencyByTrigger[0].Quantile(0.99), s.JobLatencyByTrigger[1].Quantile(0.99), s.JobLatencyByTrigger[2].Quantile(0.99), s.JobLatencyByTrigger[3].Quantile(0.99),
		s.WriteStalls.Get(), s.WriteStallNanos.Get())
	fmt.Fprintf(&b, "stalls_by_cause[imm=%d l0=%d] stall_timeouts=%d commit_cancels=%d\n",
		s.StallsByCause[stallCauseImm].Get(), s.StallsByCause[stallCauseL0].Get(),
		s.StallTimeouts.Get(), s.CommitCancels.Get())
	fmt.Fprintf(&b, "bg_errors=%d job_retries=%d read_only=%d\n",
		s.BackgroundErrors.Get(), s.JobRetries.Get(), s.ReadOnly.Get())
	fmt.Fprintf(&b, "gets=%d hits=%d bloom_skips=%d tables_probed=%d bloom_tp=%d bloom_fp=%d\n",
		s.Gets.Get(), s.GetHits.Get(), s.BloomSkips.Get(), s.TablesProbed.Get(),
		s.BloomTruePositives.Get(), s.BloomFalsePositives.Get())
	fmt.Fprintf(&b, "wal_appends=%d wal_syncs=%d iters=%d seeks=%d files_created=%d files_deleted=%d zombie_tables=%d checkpoints=%d\n",
		s.WALAppends.Get(), s.WALSyncs.Get(), s.ItersOpened.Get(), s.IterSeeks.Get(),
		s.FilesCreated.Get(), s.FilesDeleted.Get(), s.ZombieTables.Get(), s.Checkpoints.Get())
	fmt.Fprintf(&b, "reseeks=%d view_builds=%d view_hits=%d view_deferred=%d view_invalidations=%d scan_tables_opened=%d p99_scan_step_ns=%d\n",
		s.IterReseeks.Get(), s.IterViewBuilds.Get(), s.IterViewHits.Get(), s.IterViewDeferred.Get(), s.IterViewInvalidations.Get(),
		s.IterTablesOpened.Get(), s.IterScanLatency.Quantile(0.99))
	fmt.Fprintf(&b, "p99_put_ns=%d p99_batch_ns=%d p99_get_ns=%d p99_seek_ns=%d\n",
		s.PutLatency.Quantile(0.99), s.BatchLatency.Quantile(0.99),
		s.GetLatency.Quantile(0.99), s.IterSeekLatency.Quantile(0.99))
	fmt.Fprintf(&b, "commits_per_sync=%.2f p99_group_size=%d p99_wal_sync_ns=%d",
		s.CommitsPerSync(), s.WALGroupSize.Quantile(0.99), s.WALSyncLatency.Quantile(0.99))
	return b.String()
}
