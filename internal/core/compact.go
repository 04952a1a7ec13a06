package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/manifest"
)

// Maintenance-side lock order, part of the documented lock DAG: the stage
// locks (flushMu for the flush queue, pickMu for the claim set: pick, claim
// and release) come before the engine mutex. flushMu precedes pickMu: a
// flush that merges its memtable straight into level 1 claims that merge
// while it holds the queue. pickMu precedes d.mu, which encodes the
// claim-before-version-read rule: a pick reads d.mu-guarded version state
// while it holds the claim set.
//
// acheron:locks order core.DB.flushMu < core.DB.pickMu < core.DB.mu

// MaintenanceStep performs at most one unit of background work — a flush or
// a compaction (eager range-delete candidates first) — returning whether
// anything was done. Deterministic benchmarks drive this directly with auto
// maintenance disabled; with a pool of one executor it is the step of the
// pool's only executor, so background maintenance runs exactly this
// sequence.
func (d *DB) MaintenanceStep() (bool, error) {
	start := time.Now()
	did, err := d.maintenanceStep()
	// Idle steps (nothing to do) are not traced: a pool of one polls this
	// method every tick and would wash the ring with no-ops.
	if did || err != nil {
		d.traceOp(opMaintStep, start, time.Since(start), err)
	}
	return did, err
}

func (d *DB) maintenanceStep() (bool, error) {
	if did, err := d.runFlushStep(); did || err != nil {
		return did, err
	}
	return d.runCompactionStep()
}

// WaitIdle runs maintenance until no work remains — including work claimed
// by concurrent executors, which it waits out before concluding idleness.
func (d *DB) WaitIdle() error {
	return d.WaitIdleCtx(context.Background())
}

// WaitIdleCtx is WaitIdle honoring ctx: the quiesce wait and the step loop
// both observe the deadline/cancel, so a caller is never pinned behind a
// long merge it no longer wants to wait for.
func (d *DB) WaitIdleCtx(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("acheron: wait-idle interrupted: %w", err)
		}
		did, err := d.MaintenanceStep()
		if err != nil {
			return err
		}
		if did {
			continue
		}
		// Nothing pickable, but a job another goroutine runs — an
		// executor's or a synchronous caller's — may still be in flight
		// (its claims hid work from the picker); wait and re-examine.
		if d.sched.anyRunning() {
			if err := d.sched.waitQuietCtx(ctx); err != nil {
				return fmt.Errorf("acheron: wait-idle interrupted: %w", err)
			}
			continue
		}
		return nil
	}
}

// CompactAll flushes everything and pushes every populated level to the
// next one, leaving what was written before the call fully compacted.
// Intended for tests and benchmarks that want a settled tree. Each level's
// merge is a claimed job like any other, so the executors keep running
// disjoint work beside it; a write that races the call may land above the
// merges, in a memtable or a level already pushed down.
func (d *DB) CompactAll() error {
	return d.CompactAllCtx(context.Background())
}

// CompactAllCtx is CompactAll honoring ctx: the waits for running
// maintenance and the gaps between per-level merges observe the
// deadline/cancel. Levels already merged stay merged; the tree is simply
// left partially compacted.
func (d *DB) CompactAllCtx(ctx context.Context) error {
	start := time.Now()
	err := d.compactAll(ctx)
	d.traceOp(opCompactAll, start, time.Since(start), err)
	return err
}

func (d *DB) compactAll(ctx context.Context) error {
	// Wait out the running steps first: Flush below waits for a flush in
	// flight without a context.
	if err := d.sched.waitQuietCtx(ctx); err != nil {
		return fmt.Errorf("acheron: compact-all interrupted waiting for maintenance to quiesce: %w", err)
	}
	if err := d.Flush(); err != nil {
		return err
	}
	if err := d.WaitIdleCtx(ctx); err != nil {
		return err
	}
	for l := 0; l < manifest.NumLevels-1; {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("acheron: compact-all interrupted: %w", err)
		}
		// The mark is read before the pick: a conflicting job that ends
		// after it, however soon, ends the wait below.
		mark := d.sched.endMark()
		conflict := false
		j := d.claimJob(func(pv pickView) *compactJob {
			if len(pv.rs.version.Levels[l]) == 0 {
				return nil
			}
			cand := d.policy.WholeLevel(pv.rs.version, l)
			if pv.claims.Conflicts(cand) {
				conflict = true
				return nil
			}
			cand.Trigger = compaction.TriggerSaturation
			return &compactJob{cand: cand}
		})
		if conflict {
			if err := d.sched.waitEndCtx(ctx, mark); err != nil {
				return fmt.Errorf("acheron: compact-all interrupted: %w", err)
			}
			continue // pick level l again
		}
		if j != nil {
			if err := d.runCompactionJob(j); err != nil {
				return err
			}
		}
		l++
	}
	return nil
}

// isBottommost reports whether no data below (or beside, for older runs of
// the output level) the compaction could hold older versions of its keys,
// which licenses tombstone disposal and KiWi page/entry drops.
//
// v is the version the candidate was picked against and inCompaction the
// files the job replaces. The evaluation stays
// valid while the job's claim is held even if other jobs commit in the
// meantime: a concurrent job could only introduce entries below this
// compaction's output level by compacting overlapping keys from this or a
// deeper level, and the claim rectangle (level range x key span) makes any
// such job conflict with this one. Flushes add strictly newer data at L0,
// which never threatens "no older versions below".
func (d *DB) isBottommost(v *manifest.Version, c *compaction.Candidate, inCompaction map[base.FileNum]bool) bool {
	span := c.Rectangle()
	lo, hi := span.Lo, span.Hi
	if lo == nil {
		return true
	}
	// Files at the output level that are not part of the compaction may
	// hold older versions (other tiered runs, or key ranges the leveling
	// overlap computation missed for widened tombstone-only files).
	for l := c.OutputLevel; l < manifest.NumLevels; l++ {
		for _, r := range v.Levels[l] {
			// An in-place rewrite stays in its own run: the runs of its
			// level that are newer than that run hold only newer versions.
			if c.StartLevel == c.OutputLevel && l == c.OutputLevel && r.ID > c.OutputRunID {
				continue
			}
			for _, f := range r.Find(lo, hi) {
				if !inCompaction[f.FileNum] {
					return false
				}
			}
		}
	}
	return true
}

// runCandidate executes a claimed job end to end — trivial move, merge,
// in-place rewrite or covered-file drop — through one manifest edit, one
// install and one accounting tail. The candidate's rectangle is claimed in
// d.inflight, so no concurrent job touches its files.
func (d *DB) runCandidate(j *compactJob) (err error) {
	c := j.cand
	files := c.InputFiles()
	if len(files) == 0 && c.Mem == nil {
		return nil
	}
	ji := JobInfo{
		ID: j.id, Kind: JobCompact, Trigger: c.Trigger, Policy: d.policy.Name(),
		StartLevel: c.StartLevel, OutputLevel: c.OutputLevel, Started: time.Now(),
	}
	defer func() { d.recordJob(ji, err) }()

	inPlace := c.StartLevel == c.OutputLevel
	// Trivial move: a single input file with nothing to merge against
	// moves by metadata edit alone. Files carrying tombstones are
	// excluded so disposal opportunities (and TTL accounting) are never
	// skipped; an in-place candidate would "move" to where it already is.
	trivial := !inPlace && !c.OutputToNewRun &&
		len(files) == 1 && len(c.OutputRunFiles) == 0 && !files[0].HasTombstones

	res := &compaction.Result{}
	edit := &manifest.VersionEdit{}
	switch {
	case trivial:
		edit.Added = []manifest.NewFileEntry{{Level: c.OutputLevel, Meta: files[0]}}
		ji.BytesIn = files[0].Size
	case j.covered:
		// The file's whole delete-key span is covered: nothing to merge
		// (and, for a file with duplicates, nothing Run may page-filter).
		res.RangeCoveredDropped = files[0].NumEntries
	default:
		if res, err = d.merge(j); err != nil {
			return err
		}
		ji.BytesIn, ji.BytesOut = res.BytesRead, res.BytesWritten
		if inPlace && res.PagesDropped == 0 && res.RangeCoveredDropped == 0 {
			// The file's delete-key span intersects a tombstone but no
			// entry is covered: discard the identical rewrite, install
			// nothing, and leave the watermark on the file so it is not
			// scanned again. The bytes it cost are accounted below.
			for _, of := range res.Outputs {
				d.removeTable(of.FileNum, false)
			}
			edit = nil
			files[0].EagerDone.Store(uint64(j.applicable))
		} else {
			for _, of := range res.Outputs {
				m := fileMetaFrom(of.FileNum, of.Meta)
				// An eager rewrite carries its watermark (zero for any
				// other job); should the install fail, it dies with the
				// metadata.
				m.EagerDone.Store(uint64(j.applicable))
				edit.Added = append(edit.Added, manifest.NewFileEntry{Level: c.OutputLevel, Meta: m})
			}
		}
	}
	if edit != nil {
		for i, r := range c.Inputs {
			for _, f := range r.Files {
				edit.Deleted = append(edit.Deleted, manifest.DeletedFileEntry{Level: c.InputLevel(i), FileNum: f.FileNum})
			}
		}
		for _, f := range c.OutputRunFiles {
			edit.Deleted = append(edit.Deleted, manifest.DeletedFileEntry{Level: c.OutputLevel, FileNum: f.FileNum})
		}
		if err := d.installCompaction(c, edit); err != nil {
			return err
		}
	}

	t := int(c.Trigger)
	if trivial {
		d.stats.TrivialMoves.Add(1)
	}
	d.stats.CompactionsByTrigger[t].Add(1)
	d.stats.CompactBytesRead.Add(int64(res.BytesRead))
	d.stats.CompactBytesWritten.Add(int64(res.BytesWritten))
	d.stats.CompactBytesReadByTrigger[t].Add(int64(res.BytesRead))
	d.stats.CompactBytesWrittenByTrigger[t].Add(int64(res.BytesWritten))
	d.stats.ShadowedDropped.Add(int64(res.ShadowedDropped))
	d.stats.PagesDropped.Add(int64(res.PagesDropped))
	d.stats.RangeCoveredDropped.Add(int64(res.RangeCoveredDropped))
	d.stats.CompactMergeWaitNanos.Add(res.MergeWait.Nanoseconds())
	d.stats.CompactWriterWaitNanos.Add(res.WriterWait.Nanoseconds())
	d.stats.JobLatencyByTrigger[t].Record(time.Since(ji.Started).Nanoseconds())

	// The tombstone ledger is booked here and not during the merge: until
	// the edit lands the old files are what a reader and a disk scan find,
	// and a failed or retried job must book nothing.
	d.stats.TombstonesPersisted.Add(int64(res.TombstonesDropped))
	d.stats.TombstonesSuperseded.Add(int64(res.TombstonesSuperseded))
	d.stats.RangeTombstonesPersisted.Add(int64(res.RangeTombstonesDropped))
	d.stats.LiveTombstones.Add(-int64(res.TombstonesDropped + res.TombstonesSuperseded))
	now, deadline := d.opts.Clock.Now(), d.stats.persistenceDeadline.Load()
	for _, createdAt := range res.DisposedCreatedAt {
		lat := max(int64(now-createdAt), 0)
		d.stats.PersistenceLatency.Record(lat)
		if deadline > 0 && lat > deadline {
			d.stats.TombstonesPersistedLate.Add(1)
		}
	}
	return nil
}

// merge runs the job's candidate through compaction.Run — the only code that
// decides what a merge, or a range tombstone, may drop — and returns the
// outputs uninstalled. j.v is the version the candidate was built against.
func (d *DB) merge(j *compactJob) (*compaction.Result, error) {
	v, c := j.v, j.cand
	inCompaction := make(map[base.FileNum]bool) // every file this job replaces
	for _, f := range c.ClaimFiles() {
		inCompaction[f.FileNum] = true
	}
	bottom := d.isBottommost(v, c, inCompaction)
	// The snapshot list is read now, not at pick time. Either is safe for an
	// eager job — a snapshot taken after the pick already sees the tombstone
	// — and the later read is the more conservative one.
	d.mu.Lock()
	snaps := append([]base.SeqNum(nil), d.snapshots...)
	d.mu.Unlock()

	// A range tombstone is retired only when no file outside this
	// compaction could still hold an entry old enough for it to cover.
	// Like isBottommost, the claim rectangle keeps this stale-version
	// evaluation safe against concurrent commits: flushes only add files
	// whose entries postdate the tombstone (skipped by the SmallestSeqNum
	// check), and overlapping compactions conflict with this job's claim.
	rtDisposable := func(rt base.RangeTombstone) bool {
		disposable := true
		v.AllFiles(func(_ int, f *manifest.FileMetadata) {
			if !disposable || inCompaction[f.FileNum] || f.NumEntries == 0 {
				return
			}
			if f.SmallestSeqNum >= rt.Seq {
				return // everything in f postdates the tombstone
			}
			if f.DeleteKeyMin < rt.Hi && f.DeleteKeyMax >= rt.Lo {
				disposable = false
			}
		})
		return disposable
	}

	return compaction.Run(c, compaction.Env{
		FS:                       d.opts.FS,
		Dirname:                  d.dirname,
		Writers:                  d.writers,
		TargetFileBytes:          d.opts.Compaction.TargetFileBytes,
		OpenReader:               d.cache.get,
		AllocFileNum:             d.vs.AllocFileNum,
		Snapshots:                snaps,
		Bottommost:               bottom,
		RangeTombstoneDisposable: rtDisposable,
		LiveRangeTombstones:      j.live,
	})
}

// installCompaction commits a compaction's edit, resolving the run its Added
// files join at the commit point, against the version current then — two
// concurrent compactions into the same (previously empty) leveling output
// must both land in the single run the first one creates.
func (d *DB) installCompaction(c *compaction.Candidate, edit *manifest.VersionEdit) error {
	var underMu func()
	if c.Mem != nil {
		// A flush into level 1: the memtable leaves the queue as its data
		// appears in level 1 (flushOne holds flushMu, so it is imm[0]), and
		// its WAL segment falls below the watermark.
		underMu = d.popImmLocked
		edit.LogNum = d.unflushedLog()
	}
	return d.installEdit(edit, func(cur *manifest.Version) {
		runID := c.OutputRunID
		if c.OutputToNewRun {
			runID = d.vs.AllocRunID()
		} else if runID == 0 {
			if outRuns := cur.Levels[c.OutputLevel]; len(outRuns) > 0 {
				runID = outRuns[0].ID
			} else {
				runID = d.vs.AllocRunID()
			}
		}
		for i := range edit.Added {
			edit.Added[i].RunID = runID
		}
	}, underMu)
}

// ---------------------------------------------------------------------------
// Eager secondary range deletes (the KiWi fast path): a fourth trigger

// pickEagerJob scans the tree for a file a live range tombstone can erase
// and claims it as an in-place candidate: the one file in, its own level and
// run out. What the tombstones may drop from it is compaction.Run's call,
// like for any other job; a fully covered file skips the merge (covered).
func (d *DB) pickEagerJob() *compactJob { return d.claimJob(d.eagerJob) }

// eagerJob is pickEagerJob's picker. It collects every live range
// tombstone, unflushed ones included: WAL durability for them is ensured at
// issue time.
func (d *DB) eagerJob(pv pickView) *compactJob {
	rts := collectRangeTombstones(pv.rs)
	if len(rts) == 0 {
		return nil
	}
	v := pv.rs.version
	for l := 0; l < manifest.NumLevels; l++ {
		for _, run := range v.Levels[l] {
			for _, f := range run.Files {
				applicable, covered := d.classifyEager(f, rts, pv.snaps)
				if applicable == 0 {
					continue
				}
				cand := &compaction.Candidate{
					Trigger:    compaction.TriggerRangeDelete,
					StartLevel: l, OutputLevel: l, OutputRunID: run.ID,
					Inputs: []*manifest.Run{{ID: run.ID, Files: []*manifest.FileMetadata{f}}},
				}
				// Erasing newest versions is only safe when nothing older
				// sits below or in an older run beside.
				if pv.claims.Conflicts(cand) || !d.isBottommost(v, cand, map[base.FileNum]bool{f.FileNum: true}) {
					continue
				}
				return &compactJob{cand: cand, live: rts, applicable: applicable, covered: covered}
			}
		}
	}
	return nil
}

// classifyEager decides whether the live range tombstones rts give an eager
// job something to do on file f. applicable is the highest tombstone
// sequence that may act on f, zero for "leave f alone"; after the job it is
// f's (or its rewrite's) FileMetadata.EagerDone, so span-only intersections
// (where no entry is actually covered) are not re-processed forever.
// covered reports that one tombstone covers f's whole delete-key span: the
// file goes without being read.
func (d *DB) classifyEager(f *manifest.FileMetadata, rts []base.RangeTombstone, snaps []base.SeqNum) (applicable base.SeqNum, covered bool) {
	if f.NumEntries == 0 || f.NumDeletes > 0 || f.NumRangeDeletes > 0 {
		// Files carrying tombstones are left to regular compaction:
		// erasing them could resurrect deleted keys.
		return 0, false
	}
	if f.DeleteKeyMin > f.DeleteKeyMax {
		return 0, false
	}
	partial := false
	for _, rt := range rts {
		if f.LargestSeqNum >= rt.Seq {
			continue
		}
		if len(snaps) > 0 && snaps[0] < rt.Seq {
			continue // a snapshot still reads what rt covers
		}
		if rt.Seq > applicable {
			applicable = rt.Seq
		}
		if rt.CoversRange(f.DeleteKeyMin, f.DeleteKeyMax) {
			covered = true
		} else if !f.HasDuplicates && f.DeleteKeyMin < rt.Hi && f.DeleteKeyMax >= rt.Lo {
			// Partial rewrites of multi-version files could expose an
			// older version of a covered key; leave those to regular
			// compaction.
			partial = true
		}
	}
	if !covered && !partial {
		return 0, false
	}
	if applicable <= base.SeqNum(f.EagerDone.Load()) {
		return 0, false // nothing new since the last pass over f
	}
	return applicable, covered
}
