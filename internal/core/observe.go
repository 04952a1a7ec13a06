package core

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/base"
	"repro/internal/event"
	"repro/internal/manifest"
	"repro/internal/metrics"
)

// Operation names stamped into trace events. They are part of the
// observability contract: tools filter on them, so renaming one is a
// breaking change.
const (
	opPut         = "put"
	opDelete      = "delete"
	opRangeDelete = "range-delete"
	opGet         = "get"
	opBatch       = "batch"
	opIterOpen    = "iter-open"
	opIterSeek    = "iter-seek"
	opIterNext    = "iter-next"
	opFlush       = "flush"
	opCompactAll  = "compact-all"
	opMaintStep   = "maintenance-step"
	opCheckpoint  = "checkpoint"
)

// opSampled reports whether this hot-path operation should record timing
// and trace events: one in every opSampleInterval calls. The unsampled
// fast path costs a single atomic increment — no clock readings, no tracer
// lock. Latency histograms built from the sampled ops remain unbiased;
// operation COUNTS come from dedicated counters that see every op.
func (d *DB) opSampled() bool {
	return d.opSampleN.Add(1)%opSampleInterval == 0
}

// traceOp emits the begin/end event pair for one completed operation. The
// pair is emitted together after the fact (one tracer lock acquisition, no
// extra clock readings) rather than bracketing the operation live; the
// begin event carries the operation's start time, so consumers still see
// the true interval.
func (d *DB) traceOp(op string, start time.Time, dur time.Duration, err error) {
	end := event.Event{Type: event.OpEnd, Op: op, Time: start.Add(dur), Dur: dur}
	if err != nil {
		end.Err = err.Error()
	}
	d.trace.EmitPair(event.Event{Type: event.OpBegin, Op: op, Time: start}, end)
}

// RecentEvents returns up to max buffered trace events, oldest first.
func (d *DB) RecentEvents(max int) []event.Event { return d.trace.Recent(max) }

// EventsSince returns up to max buffered trace events with sequence number
// >= seq, oldest first. Polling with the last seen sequence plus one tails
// the stream.
func (d *DB) EventsSince(seq uint64, max int) []event.Event { return d.trace.Since(seq, max) }

// TraceEventsTotal returns the number of trace events emitted so far.
func (d *DB) TraceEventsTotal() uint64 { return d.trace.Total() }

// OldestTombstoneAge returns now minus the creation timestamp of the oldest
// live tombstone (files, then memtables), in the clock's own units —
// nanoseconds under the default wall clock. Zero when no tombstone is live.
// Compared against the DPT it answers the paper's central question: how
// close is the engine to violating its delete-persistence promise?
func (d *DB) OldestTombstoneAge() int64 {
	now := d.opts.Clock.Now()
	var oldest base.Timestamp
	have := false
	note := func(ts base.Timestamp) {
		if !have || ts < oldest {
			oldest, have = ts, true
		}
	}
	d.mu.Lock()
	v := d.vs.Current()
	if ts, ok := d.mem.OldestTombstone(); ok {
		note(ts)
	}
	for _, e := range d.imm {
		if ts, ok := e.mem.OldestTombstone(); ok {
			note(ts)
		}
	}
	d.mu.Unlock()
	v.AllFiles(func(_ int, f *manifest.FileMetadata) {
		if f.HasTombstones {
			note(f.OldestTombstone)
		}
	})
	if !have {
		return 0
	}
	age := int64(now) - int64(oldest)
	if age < 0 {
		age = 0
	}
	return age
}

// Registry returns the DB's metric registry, building it on first use.
// Every engine counter, gauge, and histogram is registered under a stable
// acheron_-prefixed name; the registry renders them as Prometheus text
// (WriteTo) or JSON (WriteJSON).
func (d *DB) Registry() *metrics.Registry {
	d.registryOnce.Do(func() {
		r := metrics.NewRegistry()
		// Registration failures on a fresh registry are programming errors
		// (static names, checked by the registry); surface them loudly
		// rather than dropping series.
		if err := d.RegisterMetrics(r, nil); err != nil {
			panic(err)
		}
		d.registry = r
	})
	return d.registry
}

var triggerLabels = [4]metrics.Labels{
	{"trigger": "l0"}, {"trigger": "saturation"}, {"trigger": "ttl"}, {"trigger": "range-delete"},
}

// mergeLabels overlays l on top of extra without mutating either.
func mergeLabels(extra, l metrics.Labels) metrics.Labels {
	if len(extra) == 0 {
		return l
	}
	m := make(metrics.Labels, len(extra)+len(l))
	for k, v := range extra {
		m[k] = v
	}
	for k, v := range l {
		m[k] = v
	}
	return m
}

// RegisterMetrics registers every engine series into r with extra merged
// into each series' labels. A sharded store calls this once per shard with
// Labels{"shard": "<i>"} to aggregate N engines into one registry (the
// registry accepts one metric family under several distinct label sets);
// DB.Registry uses it with no extra labels for the single-engine view. The
// first registration error (duplicate series, mismatched family) is
// returned; later series still register so a partial failure stays usable.
func (d *DB) RegisterMetrics(r *metrics.Registry, extra metrics.Labels) error {
	s := &d.stats
	var firstErr error
	must := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	lb := func(l metrics.Labels) metrics.Labels { return mergeLabels(extra, l) }
	counter := func(name, help string, c *metrics.Counter) {
		must(r.RegisterCounter(name, help, lb(nil), c))
	}

	// Write path.
	counter("acheron_bytes_ingested_total", "Logical user bytes written (keys + values).", &s.BytesIngested)
	counter("acheron_wal_bytes_total", "Bytes appended to the write-ahead log.", &s.WALBytes)
	counter("acheron_wal_appends_total", "WAL record appends.", &s.WALAppends)
	counter("acheron_wal_syncs_total", "WAL fsyncs.", &s.WALSyncs)
	must(r.RegisterHistogram("acheron_wal_group_size",
		"Commit-group member count per batched WAL write (group-commit amortization).", lb(nil), &s.WALGroupSize))
	must(r.RegisterHistogram("acheron_wal_sync_latency_ns",
		"Wall-clock nanoseconds per WAL fsync.", lb(nil), &s.WALSyncLatency))
	must(r.RegisterGaugeFunc("acheron_commits_per_sync",
		"Derived WAL appends per fsync, scaled by 100 (integer exposition); 0 before any sync.",
		lb(nil), func() int64 { return int64(d.stats.CommitsPerSync() * 100) }))
	counter("acheron_write_stalls_total", "Commits that blocked on backpressure.", &s.WriteStalls)
	counter("acheron_write_stall_ns_total", "Total nanoseconds commits spent stalled.", &s.WriteStallNanos)
	for c := range s.StallsByCause {
		lbl := lb(metrics.Labels{"cause": stallCauseNames[c]})
		must(r.RegisterCounter("acheron_write_stalls_by_cause_total",
			"Stall episodes by saturated resource (an episode observing both backlogs counts under both).", lbl, &s.StallsByCause[c]))
		must(r.RegisterHistogram("acheron_stall_wait_ns",
			"Per stall episode, nanoseconds spent stalled, by saturated resource.", lbl, &s.StallWaitByCause[c]))
	}
	counter("acheron_stall_timeouts_total", "Writers released from the stall gate by context deadline or cancellation.", &s.StallTimeouts)
	counter("acheron_commit_cancels_total", "Commits withdrawn from the group-commit queue by context cancellation.", &s.CommitCancels)
	if d.admit != nil {
		for _, cl := range []admission.Class{admission.ClassRead, admission.ClassWrite} {
			cm := d.admit.ClassMetrics(cl)
			lbl := lb(metrics.Labels{"class": cl.String()})
			must(r.RegisterCounter("acheron_admission_admitted_total",
				"Operations admitted by the token-bucket gate, by class.", lbl, &cm.Admitted))
			must(r.RegisterCounter("acheron_admission_rejected_total",
				"Operations rejected by the admission gate (deadline or max-wait exceeded), by class.", lbl, &cm.Rejected))
			must(r.RegisterCounter("acheron_admission_shed_total",
				"Operations shed by the pressure gate before stalling, by class.", lbl, &cm.Shed))
			must(r.RegisterHistogram("acheron_admission_wait_ns",
				"Nanoseconds admitted operations waited for tokens, by class.", lbl, &cm.Wait))
		}
	}

	// Maintenance.
	counter("acheron_flushes_total", "Memtable flushes.", &s.Flushes)
	counter("acheron_flushes_to_l1_total", "Memtable flushes merged straight into level 1, their tombstones past level 0's TTL budget (also in acheron_flushes_total; their bytes are compaction bytes).", &s.FlushesToL1)
	counter("acheron_bytes_flushed_total", "Sstable bytes written by flushes.", &s.BytesFlushed)
	counter("acheron_compact_bytes_read_total", "Bytes read by compactions.", &s.CompactBytesRead)
	counter("acheron_compact_bytes_written_total", "Bytes written by compactions.", &s.CompactBytesWritten)
	counter("acheron_trivial_moves_total", "Metadata-only file moves.", &s.TrivialMoves)
	counter("acheron_compact_merge_wait_ns_total", "Nanoseconds compaction merges waited on their writer goroutine (handoffs and the join): writer-bound time.", &s.CompactMergeWaitNanos)
	counter("acheron_compact_writer_wait_ns_total", "Nanoseconds compaction writer goroutines waited for the merge's next batch: merge-bound time.", &s.CompactWriterWaitNanos)
	policy := d.policy.Name()
	for t := range s.CompactionsByTrigger {
		lbl := lb(metrics.Labels{"trigger": triggerLabels[t]["trigger"], "policy": policy})
		must(r.RegisterCounter("acheron_compactions_total",
			"Compactions run, by trigger and policy.", lbl, &s.CompactionsByTrigger[t]))
		must(r.RegisterHistogram("acheron_compaction_duration_ns",
			"Wall-clock nanoseconds per compaction job, by trigger and policy.", lbl, &s.JobLatencyByTrigger[t]))
		must(r.RegisterCounter("acheron_compact_bytes_read_by_trigger_total",
			"Bytes read by compactions, by trigger and policy.", lbl, &s.CompactBytesReadByTrigger[t]))
		must(r.RegisterCounter("acheron_compact_bytes_written_by_trigger_total",
			"Bytes written by compactions, by trigger and policy.", lbl, &s.CompactBytesWrittenByTrigger[t]))
	}
	must(r.RegisterHistogram("acheron_flush_duration_ns",
		"Wall-clock nanoseconds per flush job.", lb(nil), &s.FlushLatency))
	counter("acheron_background_errors_total", "Failed background job attempts.", &s.BackgroundErrors)
	counter("acheron_job_retries_total", "Background job retries scheduled for transient failures.", &s.JobRetries)
	counter("acheron_files_created_total", "Table files installed into a version by flushes and compactions.", &s.FilesCreated)
	counter("acheron_files_deleted_total", "Table files of a version unlinked once replaced. Outputs that never joined a version are unlinked uncounted.", &s.FilesDeleted)
	counter("acheron_checkpoints_total", "Completed checkpoints.", &s.Checkpoints)

	// Deletes — the paper's subject.
	counter("acheron_deletes_total", "Point deletes accepted.", &s.DeletesIssued)
	counter("acheron_range_deletes_total", "Secondary range deletes accepted.", &s.RangeDeletesIssued)
	counter("acheron_tombstones_persisted_total", "Point tombstones physically disposed of at the last relevant level.", &s.TombstonesPersisted)
	counter("acheron_tombstones_superseded_total", "Tombstones dropped because a newer write made them moot.", &s.TombstonesSuperseded)
	counter("acheron_range_tombstones_persisted_total", "Disposed range tombstones.", &s.RangeTombstonesPersisted)
	counter("acheron_pages_dropped_total", "Whole KiWi pages elided by range-delete compactions.", &s.PagesDropped)
	counter("acheron_range_covered_dropped_total", "Entries removed because a range tombstone covered them.", &s.RangeCoveredDropped)
	counter("acheron_shadowed_dropped_total", "Superseded versions discarded by compactions.", &s.ShadowedDropped)
	must(r.RegisterHistogram("acheron_persistence_latency_ns",
		"Per persisted tombstone, nanoseconds from delete issue to physical disposal.", lb(nil), &s.PersistenceLatency))
	counter("acheron_tombstones_persisted_late_total", "Persisted tombstones whose latency exceeded the deadline (acheron_dpt_ns), compared exactly.", &s.TombstonesPersistedLate)
	must(r.RegisterGauge("acheron_live_tombstones",
		"Point tombstones currently in the tree.", lb(nil), &s.LiveTombstones))
	must(r.RegisterGaugeFunc("acheron_oldest_tombstone_age_ns",
		"Age of the oldest live tombstone (0 when none); compare against acheron_dpt_ns.",
		lb(nil), d.OldestTombstoneAge))
	must(r.RegisterGaugeFunc("acheron_dpt_ns",
		"Configured delete persistence threshold (0 disables FADE).",
		lb(nil), func() int64 { return int64(d.opts.Compaction.DPT) }))

	// Read path.
	counter("acheron_gets_total", "Point lookups.", &s.Gets)
	counter("acheron_get_hits_total", "Point lookups that found a live key.", &s.GetHits)
	counter("acheron_bloom_skips_total", "Table probes short-circuited by Bloom filters.", &s.BloomSkips)
	counter("acheron_tables_probed_total", "Sstables consulted by point lookups.", &s.TablesProbed)
	counter("acheron_bloom_true_positives_total", "Filter pass-throughs where the key was present.", &s.BloomTruePositives)
	counter("acheron_bloom_false_positives_total", "Filter pass-throughs where the key was absent.", &s.BloomFalsePositives)
	counter("acheron_iters_opened_total", "Iterators opened.", &s.ItersOpened)
	counter("acheron_iter_seeks_total", "Iterator positioning calls (First/SeekGE).", &s.IterSeeks)
	counter("acheron_iter_reseeks_total", "Positioning calls beyond an iterator's first.", &s.IterReseeks)
	counter("acheron_iter_view_builds_total", "Cached sorted views constructed (one merge pass each).", &s.IterViewBuilds)
	counter("acheron_iter_view_hits_total", "Scans served by an already-cached sorted view.", &s.IterViewHits)
	counter("acheron_iter_view_deferred_total", "Scans that ran the plain merge because their version's sorted view was not yet earned.", &s.IterViewDeferred)
	counter("acheron_iter_view_invalidations_total", "Sorted-view cache entries (built or still earning) dropped by version installs.", &s.IterViewInvalidations)
	counter("acheron_iter_tables_opened_total", "Sstable iterators materialized by range scans.", &s.IterTablesOpened)

	// Per-operation latency histograms.
	must(r.RegisterHistogram("acheron_commit_latency_ns",
		"Single-record commit latency (Put/Delete/DeleteSecondaryRange).", lb(nil), &s.PutLatency))
	must(r.RegisterHistogram("acheron_batch_latency_ns",
		"Batch commit latency.", lb(nil), &s.BatchLatency))
	must(r.RegisterHistogram("acheron_get_latency_ns",
		"Point lookup latency.", lb(nil), &s.GetLatency))
	must(r.RegisterHistogram("acheron_iter_seek_latency_ns",
		"Iterator positioning latency.", lb(nil), &s.IterSeekLatency))
	must(r.RegisterHistogram("acheron_iter_scan_step_latency_ns",
		"Sampled per-entry scan step latency (Next).", lb(nil), &s.IterScanLatency))

	// Backlog / health gauges.
	must(r.RegisterGaugeFunc("acheron_flush_queue_depth",
		"Immutable memtables queued for flush.", lb(nil), s.FlushQueueDepth.Get))
	must(r.RegisterGaugeFunc("acheron_flush_queue_depth_peak",
		"Worst flush backlog ever reached.", lb(nil), s.FlushQueueDepth.Peak))
	must(r.RegisterGauge("acheron_compactions_in_flight",
		"Currently running compaction jobs.", lb(nil), &s.CompactionsInFlight))
	must(r.RegisterGauge("acheron_zombie_tables",
		"Table files gone from the current version but still held by a reader's version.", lb(nil), &s.ZombieTables))
	must(r.RegisterGauge("acheron_read_only",
		"1 once a sticky background error flipped the DB read-only.", lb(nil), &s.ReadOnly))

	// Block cache. The funcs are nil-safe so a cache-disabled DB still
	// exposes the series (as zeros) and dashboards need no special case.
	blocks := d.cache.blocks
	cacheFn := func(fn func() int64) func() int64 {
		if blocks == nil {
			return func() int64 { return 0 }
		}
		return fn
	}
	must(r.RegisterCounterFunc("acheron_block_cache_hits_total",
		"Block cache hits.", lb(nil), cacheFn(func() int64 { return blocks.Hits() })))
	must(r.RegisterCounterFunc("acheron_block_cache_misses_total",
		"Block cache misses.", lb(nil), cacheFn(func() int64 { return blocks.Misses() })))
	must(r.RegisterCounterFunc("acheron_block_cache_evictions_total",
		"Blocks evicted to stay under capacity.", lb(nil), cacheFn(func() int64 { return blocks.Evictions() })))
	must(r.RegisterGaugeFunc("acheron_block_cache_bytes",
		"Bytes resident in the block cache.", lb(nil), cacheFn(func() int64 { return blocks.Bytes() })))

	// Tree shape, one series per level.
	for l := 0; l < manifest.NumLevels; l++ {
		l := l
		lbl := lb(metrics.Labels{"level": strconv.Itoa(l)})
		must(r.RegisterGaugeFunc("acheron_level_bytes",
			"Live sstable bytes per level.", lbl,
			func() int64 { return int64(d.Levels()[l].Bytes) }))
		must(r.RegisterGaugeFunc("acheron_level_files",
			"Live sstable files per level.", lbl,
			func() int64 { return int64(d.Levels()[l].Files) }))
		must(r.RegisterGaugeFunc("acheron_level_tombstones",
			"Point tombstones resident per level.", lbl,
			func() int64 { return int64(d.Levels()[l].Tombstones) }))
		must(r.RegisterGaugeFunc("acheron_level_runs",
			"Sorted runs per level (tiered policies hold several; leveling holds one).", lbl,
			func() int64 { return int64(d.Levels()[l].Runs) }))
	}

	// The tracer itself.
	must(r.RegisterCounterFunc("acheron_trace_events_total",
		"Trace events emitted.", lb(nil), func() int64 { return int64(d.trace.Total()) }))
	return firstErr
}

// eventJSON is the wire form of one trace event (Type rendered by name).
type eventJSON struct {
	Seq    uint64 `json:"seq"`
	Time   string `json:"time"`
	Type   string `json:"type"`
	Op     string `json:"op,omitempty"`
	Policy string `json:"policy,omitempty"`
	Job    uint64 `json:"job,omitempty"`
	File   uint64 `json:"file,omitempty"`
	Level  int    `json:"level,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	DurNs  int64  `json:"dur_ns,omitempty"`
	Err    string `json:"err,omitempty"`
}

func toEventJSON(evs []event.Event) []eventJSON {
	out := make([]eventJSON, len(evs))
	for i, e := range evs {
		out[i] = eventJSON{
			Seq: e.Seq, Time: e.Time.Format(time.RFC3339Nano), Type: e.Type.String(),
			Op: e.Op, Policy: e.Policy, Job: e.Job, File: e.File, Level: e.Level,
			Bytes: e.Bytes, DurNs: e.Dur.Nanoseconds(), Err: e.Err,
		}
	}
	return out
}

// jobJSON is the wire form of one completed maintenance job.
type jobJSON struct {
	ID          uint64 `json:"id"`
	Kind        string `json:"kind"`
	Trigger     string `json:"trigger,omitempty"`
	Policy      string `json:"policy,omitempty"`
	StartLevel  int    `json:"start_level"`
	OutputLevel int    `json:"output_level"`
	Started     string `json:"started"`
	Finished    string `json:"finished"`
	DurNs       int64  `json:"dur_ns"`
	BytesIn     uint64 `json:"bytes_in"`
	BytesOut    uint64 `json:"bytes_out"`
	Err         string `json:"err,omitempty"`
}

func toJobJSON(jobs []JobInfo) []jobJSON {
	out := make([]jobJSON, len(jobs))
	for i, j := range jobs {
		jj := jobJSON{
			ID: j.ID, Kind: j.Kind.String(),
			StartLevel: j.StartLevel, OutputLevel: j.OutputLevel,
			Started:  j.Started.Format(time.RFC3339Nano),
			Finished: j.Finished.Format(time.RFC3339Nano),
			DurNs:    j.Finished.Sub(j.Started).Nanoseconds(),
			BytesIn:  j.BytesIn, BytesOut: j.BytesOut,
		}
		if j.Kind == JobCompact {
			jj.Trigger = j.Trigger.String()
			jj.Policy = j.Policy
		}
		if j.Err != nil {
			jj.Err = j.Err.Error()
		}
		out[i] = jj
	}
	return out
}

// MetricsHandler returns an http.Handler exposing the DB's observability
// surface: metrics.NewServeMux's /metrics and /vars over Registry, plus
//
//	/events?since=N&max=M   buffered trace events, oldest first
//	/jobs                   recently completed maintenance jobs
func (d *DB) MetricsHandler() http.Handler {
	mux := metrics.NewServeMux(d.Registry())
	mux.HandleFunc("/events", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		since, _ := strconv.ParseUint(q.Get("since"), 10, 64)
		max, err := strconv.Atoi(q.Get("max"))
		if err != nil || max <= 0 {
			max = event.DefaultRingSize
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(toEventJSON(d.EventsSince(since, max)))
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(toJobJSON(d.RecentMaintJobs()))
	})
	return mux
}
