package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/manifest"
	"repro/internal/sstable"
)

// Maintenance-side lock order, machine-checked by the lockorder analyzer:
// the maintenance gate is outermost, then the stage locks (flushMu for the
// flush queue, pickMu for pick+claim), then the engine mutex. pickMu also
// precedes the claim-satellite locks, which encodes the claim-before-
// version-read rule: a compaction's inputs are claimed under pickMu before
// any d.mu-guarded version state is re-read.
//
// acheron:locks order core.DB.maintMu < core.DB.flushMu < core.DB.mu
// acheron:locks order core.DB.maintMu < core.DB.pickMu < core.DB.mu
// acheron:locks order core.DB.pickMu < core.DB.eagerMu

// MaintenanceStep performs at most one unit of background work — a flush,
// an eager range-delete pass, or a compaction — returning whether anything
// was done. Deterministic benchmarks drive this directly with auto
// maintenance disabled; with MaintenanceConcurrency=1 it is the step of the
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
	d.maintMu.Lock()
	defer d.maintMu.Unlock()
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
		// Nothing pickable, but an executor job may still be running (its
		// claims hid work from the picker); wait and re-examine.
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
// next one, leaving the tree fully compacted. Intended for tests and
// benchmarks that want a settled tree.
func (d *DB) CompactAll() error {
	return d.CompactAllCtx(context.Background())
}

// CompactAllCtx is CompactAll honoring ctx: the executor quiesce and the
// gaps between per-level merges observe the deadline/cancel. Levels already
// merged stay merged; the tree is simply left partially compacted.
func (d *DB) CompactAllCtx(ctx context.Context) error {
	start := time.Now()
	err := d.compactAll(ctx)
	d.traceOp(opCompactAll, start, time.Since(start), err)
	return err
}

func (d *DB) compactAll(ctx context.Context) error {
	// Freeze the executor pool: the manually built whole-level candidates
	// below are not claimed, so they must not race claimed jobs. maintMu,
	// taken per level, keeps other synchronous callers out.
	if err := d.sched.pauseCtx(ctx); err != nil {
		return fmt.Errorf("acheron: compact-all interrupted waiting for maintenance to quiesce: %w", err)
	}
	defer d.resumeMaintenance()
	if err := d.Flush(); err != nil {
		return err
	}
	if err := d.WaitIdleCtx(ctx); err != nil {
		return err
	}
	for l := 0; l < manifest.NumLevels-1; l++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("acheron: compact-all interrupted: %w", err)
		}
		d.maintMu.Lock()
		v := d.vs.Current()
		if len(v.Levels[l]) == 0 {
			d.maintMu.Unlock()
			continue
		}
		cand := d.policy.WholeLevel(v, l)
		cand.Trigger = compaction.TriggerSaturation
		err := d.runCandidate(d.sched.newID(), v, cand)
		d.maintMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// isBottommost reports whether no data below (or beside, for older runs of
// the output level) the compaction could hold older versions of its keys,
// which licenses tombstone disposal.
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
	_, _, lo, hi := c.Rectangle()
	if lo == nil {
		return true
	}
	// Files at the output level that are not part of the compaction may
	// hold older versions (other tiered runs, or key ranges the leveling
	// overlap computation missed for widened tombstone-only files).
	for l := c.OutputLevel; l < manifest.NumLevels; l++ {
		for _, r := range v.Levels[l] {
			for _, f := range r.Find(lo, hi) {
				if !inCompaction[f.FileNum] {
					return false
				}
			}
		}
	}
	return true
}

// runCandidate executes a compaction candidate end to end: trivial-move
// fast path, merge execution, manifest edit, file GC, statistics. The
// candidate's input and output files must be claimed in d.inflight (or all
// executors quiesced) so no concurrent job touches them; v is the version
// the candidate was built against.
func (d *DB) runCandidate(id uint64, v *manifest.Version, c *compaction.Candidate) error {
	// Trivial move: a single input file with nothing to merge against
	// moves by metadata edit alone. Files carrying tombstones are
	// excluded so disposal opportunities (and TTL accounting) are never
	// skipped.
	files := c.InputFiles()
	if len(files) == 0 {
		return nil
	}
	if !c.OutputToNewRun &&
		len(files) == 1 && len(c.OutputRunFiles) == 0 && !files[0].HasTombstones {
		return d.trivialMove(id, c, files[0])
	}

	start := time.Now()
	inCompaction := make(map[base.FileNum]bool) // every file this job replaces
	for _, f := range append(files, c.OutputRunFiles...) {
		inCompaction[f.FileNum] = true
	}
	bottom := d.isBottommost(v, c, inCompaction)
	d.mu.Lock()
	snaps := append([]base.SeqNum(nil), d.snapshots...)
	now := d.opts.Clock.Now()
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

	var releases []func()
	defer func() {
		for _, r := range releases {
			r()
		}
	}()
	env := compaction.Env{
		FS:              d.opts.FS,
		Dirname:         d.dirname,
		WriterOpts:      d.writerOptions(),
		TargetFileBytes: d.opts.Compaction.TargetFileBytes,
		OpenReader: func(fn base.FileNum) (*sstable.Reader, error) {
			r, release, err := d.cache.get(fn)
			if err != nil {
				return nil, err
			}
			releases = append(releases, release)
			return r, nil
		},
		AllocFileNum:             d.vs.AllocFileNum,
		Now:                      now,
		Snapshots:                snaps,
		Bottommost:               bottom,
		RangeTombstoneDisposable: rtDisposable,
		OnTombstoneDropped: func(_ []byte, _ base.SeqNum, createdAt base.Timestamp) {
			lat := int64(d.opts.Clock.Now() - createdAt)
			if lat < 0 {
				lat = 0
			}
			d.stats.PersistenceLatency.Record(lat)
			d.stats.TombstonesPersisted.Add(1)
			d.stats.LiveTombstones.Add(-1)
		},
		OnTombstoneSuperseded: func(_ []byte, _ base.SeqNum) {
			d.stats.TombstonesSuperseded.Add(1)
			d.stats.LiveTombstones.Add(-1)
		},
		OnRangeTombstoneDropped: func(rt base.RangeTombstone) {
			lat := int64(d.opts.Clock.Now() - rt.CreatedAt)
			if lat < 0 {
				lat = 0
			}
			d.stats.PersistenceLatency.Record(lat)
			d.stats.RangeTombstonesPersisted.Add(1)
		},
	}

	res, err := compaction.Run(c, env)
	if err != nil {
		return err
	}

	edit := &manifest.VersionEdit{}
	for i, r := range c.Inputs {
		level := c.InputLevel(i)
		for _, f := range r.Files {
			edit.Deleted = append(edit.Deleted, manifest.DeletedFileEntry{Level: level, FileNum: f.FileNum})
		}
	}
	for _, f := range c.OutputRunFiles {
		edit.Deleted = append(edit.Deleted, manifest.DeletedFileEntry{Level: c.OutputLevel, FileNum: f.FileNum})
	}
	for _, of := range res.Outputs {
		edit.Added = append(edit.Added, manifest.NewFileEntry{Level: c.OutputLevel, Meta: fileMetaFrom(of.FileNum, of.Meta)})
	}
	if err := d.installCompaction(c, edit); err != nil {
		return err
	}

	d.stats.CompactionsByTrigger[int(c.Trigger)].Add(1)
	d.stats.CompactBytesRead.Add(int64(res.BytesRead))
	d.stats.CompactBytesWritten.Add(int64(res.BytesWritten))
	d.stats.CompactBytesReadByTrigger[int(c.Trigger)].Add(int64(res.BytesRead))
	d.stats.CompactBytesWrittenByTrigger[int(c.Trigger)].Add(int64(res.BytesWritten))
	d.stats.ShadowedDropped.Add(int64(res.ShadowedDropped))
	d.stats.PagesDropped.Add(int64(res.PagesDropped))
	d.stats.RangeCoveredDropped.Add(int64(res.RangeCoveredDropped))
	d.stats.JobLatencyByTrigger[int(c.Trigger)].Record(time.Since(start).Nanoseconds())
	d.recordJob(JobInfo{
		ID:          id,
		Kind:        JobCompact,
		Trigger:     c.Trigger,
		Policy:      d.policy.Name(),
		StartLevel:  c.StartLevel,
		OutputLevel: c.OutputLevel,
		Started:     start,
		Finished:    time.Now(),
		BytesIn:     res.BytesRead,
		BytesOut:    res.BytesWritten,
	})
	return nil
}

// installCompaction commits a compaction's edit, resolving the run its Added
// files join at the commit point, against the version current then — two
// concurrent compactions into the same (previously empty) leveling output
// must both land in the single run the first one creates.
func (d *DB) installCompaction(c *compaction.Candidate, edit *manifest.VersionEdit) error {
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
	}, nil)
}

// trivialMove relocates a file by manifest edit alone.
func (d *DB) trivialMove(id uint64, c *compaction.Candidate, f *manifest.FileMetadata) error {
	start := time.Now()
	err := d.installCompaction(c, &manifest.VersionEdit{
		Deleted: []manifest.DeletedFileEntry{{Level: c.StartLevel, FileNum: f.FileNum}},
		Added:   []manifest.NewFileEntry{{Level: c.OutputLevel, Meta: f}},
	})
	if err != nil {
		return err
	}
	d.stats.TrivialMoves.Add(1)
	d.stats.CompactionsByTrigger[int(c.Trigger)].Add(1)
	d.stats.JobLatencyByTrigger[int(c.Trigger)].Record(time.Since(start).Nanoseconds())
	d.recordJob(JobInfo{
		ID:          id,
		Kind:        JobCompact,
		Trigger:     c.Trigger,
		Policy:      d.policy.Name(),
		StartLevel:  c.StartLevel,
		OutputLevel: c.OutputLevel,
		Started:     start,
		Finished:    time.Now(),
		BytesIn:     f.Size,
	})
	return nil
}

// ---------------------------------------------------------------------------
// Eager secondary range deletes (the KiWi fast path)

// eagerJob is a picked-and-claimed unit of eager range-delete work: drop or
// rewrite one file a live range tombstone can erase.
type eagerJob struct {
	id         uint64
	level      int
	runID      uint64
	f          *manifest.FileMetadata
	action     eagerAction
	applicable base.SeqNum
	rts        []base.RangeTombstone
	snaps      []base.SeqNum
}

// pickEagerJob scans the tree for a file a live range tombstone can act on:
// fully covered files are dropped by a metadata-only edit; partially
// covered files are rewritten in place without their covered pages. The
// chosen file is claimed (with its level-row key span) so concurrent
// compactions exclude it.
func (d *DB) pickEagerJob() (*eagerJob, bool) {
	d.pickMu.Lock()
	defer d.pickMu.Unlock()
	// Claims must be copied before the version is read (see
	// InFlightSet.Snapshot): a job committing in between is then either
	// still claimed or already applied, never invisible to both checks.
	claims := d.inflight.Snapshot()
	d.mu.Lock()
	v := d.vs.Current()
	snaps := append([]base.SeqNum(nil), d.snapshots...)
	// Collect all live tombstones, including unflushed ones. WAL
	// durability for them is ensured at issue time.
	rs := readState{mem: d.mem, imms: append([]immEntry(nil), d.imm...), version: v, seq: d.visibleSeqNum()}
	d.mu.Unlock()
	rts := collectRangeTombstones(rs)
	if len(rts) == 0 {
		return nil, false
	}

	for l := 0; l < manifest.NumLevels; l++ {
		for _, run := range v.Levels[l] {
			for _, f := range run.Files {
				if claims.FileClaimed(f.FileNum) {
					continue
				}
				action, applicable := d.classifyEager(v, l, run, f, rts, snaps)
				if action == eagerNone {
					continue
				}
				lo, hi := f.Smallest.UserKey, f.Largest.UserKey
				if claims.Overlaps(l, l, lo, hi) {
					continue
				}
				id := d.sched.newID()
				d.inflight.Claim(id, []*manifest.FileMetadata{f}, l, l, lo, hi)
				d.traceJobClaim(id, "eager-range-delete", l, "")
				return &eagerJob{
					id: id, level: l, runID: run.ID, f: f,
					action: action, applicable: applicable, rts: rts, snaps: snaps,
				}, true
			}
		}
	}
	return nil, false
}

// runEagerJob executes a claimed eager range-delete job and releases its
// claim.
func (d *DB) runEagerJob(j *eagerJob) error {
	start := time.Now()
	var err error
	switch j.action {
	case eagerDrop:
		err = d.eagerDropFile(j.level, j.f)
	case eagerRewrite:
		err = d.eagerRewriteFile(j.level, j.runID, j.f, j.rts, j.snaps, j.applicable)
	}
	d.inflight.Release(j.id)
	d.recordJob(JobInfo{
		ID:          j.id,
		Kind:        JobEagerRangeDelete,
		StartLevel:  j.level,
		OutputLevel: j.level,
		Started:     start,
		Finished:    time.Now(),
		BytesIn:     j.f.Size,
		Err:         err,
	})
	return err
}

type eagerAction int

const (
	eagerNone eagerAction = iota
	eagerDrop
	eagerRewrite
)

// classifyEager decides what a range tombstone allows for file f at level
// l. applicable is the highest tombstone sequence considered; it is
// memoized after the action so span-only intersections (where no entry is
// actually covered) are not re-processed forever.
func (d *DB) classifyEager(v *manifest.Version, l int, run *manifest.Run, f *manifest.FileMetadata, rts []base.RangeTombstone, snaps []base.SeqNum) (eagerAction, base.SeqNum) {
	if f.NumEntries == 0 || f.NumDeletes > 0 || f.NumRangeDeletes > 0 {
		// Files carrying tombstones are left to regular compaction:
		// erasing them could resurrect deleted keys.
		return eagerNone, 0
	}
	if f.DeleteKeyMin > f.DeleteKeyMax {
		return eagerNone, 0
	}
	action := eagerNone
	var applicable base.SeqNum
	for _, rt := range rts {
		if f.LargestSeqNum >= rt.Seq {
			continue
		}
		if !snapshotFree(snaps, rt.Seq) {
			continue
		}
		if rt.Seq > applicable {
			applicable = rt.Seq
		}
		if rt.CoversRange(f.DeleteKeyMin, f.DeleteKeyMax) {
			action = eagerDrop
		} else if action == eagerNone && !f.HasDuplicates && f.DeleteKeyMin < rt.Hi && f.DeleteKeyMax >= rt.Lo {
			// Partial rewrites of multi-version files could expose an
			// older version of a covered key; leave those to regular
			// compaction.
			action = eagerRewrite
		}
	}
	if action == eagerNone {
		return eagerNone, 0
	}
	d.eagerMu.Lock()
	done, ok := d.eagerDone[f.FileNum]
	d.eagerMu.Unlock()
	if ok && applicable <= done {
		return eagerNone, 0 // nothing new since the last pass over f
	}
	// Erasing newest versions is only safe when nothing older sits below.
	if d.olderDataBelow(v, l, run, f) {
		return eagerNone, 0
	}
	return action, applicable
}

// snapshotFree reports that no snapshot predates seq (snaps is ascending).
func snapshotFree(snaps []base.SeqNum, seq base.SeqNum) bool {
	return len(snaps) == 0 || snaps[0] >= seq
}

// olderDataBelow reports whether any file below level l — or an older run
// of the same level — overlaps f's key range.
func (d *DB) olderDataBelow(v *manifest.Version, l int, run *manifest.Run, f *manifest.FileMetadata) bool {
	lo, hi := f.Smallest.UserKey, f.Largest.UserKey
	for _, r := range v.Levels[l] {
		if r.ID < run.ID && len(r.Find(lo, hi)) > 0 {
			return true
		}
	}
	for dl := l + 1; dl < manifest.NumLevels; dl++ {
		for _, r := range v.Levels[dl] {
			if len(r.Find(lo, hi)) > 0 {
				return true
			}
		}
	}
	return false
}

// eagerDropFile removes a fully covered file with a metadata-only edit.
func (d *DB) eagerDropFile(l int, f *manifest.FileMetadata) error {
	edit := &manifest.VersionEdit{Deleted: []manifest.DeletedFileEntry{{Level: l, FileNum: f.FileNum}}}
	if err := d.installEdit(edit, nil, nil); err != nil {
		return err
	}
	d.stats.RangeCoveredDropped.Add(int64(f.NumEntries))
	return nil
}

// eagerRewriteFile rewrites a partially covered file without its covered
// pages and entries, keeping it at the same level and run. applicable is
// the tombstone watermark memoized so a no-op rewrite is never repeated.
func (d *DB) eagerRewriteFile(l int, runID uint64, f *manifest.FileMetadata, rts []base.RangeTombstone, snaps []base.SeqNum, applicable base.SeqNum) error {
	r, release, err := d.cache.get(f.FileNum)
	if err != nil {
		return err
	}
	defer release()

	droppablePage := func(p sstable.PageInfo) bool {
		for _, rt := range rts {
			if f.LargestSeqNum < rt.Seq && snapshotFree(snaps, rt.Seq) && p.Droppable(rt) {
				return false // drop the page
			}
		}
		return true
	}
	coveredEntry := func(value []byte, seq base.SeqNum) bool {
		if d.opts.DeleteKeyFunc == nil {
			return false
		}
		dk := d.opts.DeleteKeyFunc(value)
		for _, rt := range rts {
			if rt.Covers(dk, seq) && snapshotFree(snaps, rt.Seq) {
				return true
			}
		}
		return false
	}

	it := r.NewCompactionIter(droppablePage)
	var covered uint64
	newFn, meta, err := d.writeTable(func(w *sstable.Writer) error {
		for valid := it.First(); valid; valid = it.Next() {
			ik := it.Key()
			if ik.Kind() == base.KindSet && coveredEntry(it.Value(), ik.SeqNum()) {
				covered++
				continue
			}
			if err := w.Add(ik, it.Value()); err != nil {
				return err
			}
		}
		w.NoteDroppedPages(it.Dropped())
		return it.Error()
	})
	if err != nil {
		return err
	}
	newPath := manifest.MakeFilename(d.dirname, manifest.FileTypeTable, newFn)

	if covered == 0 && it.Dropped() == 0 {
		// The file's delete-key span intersects a tombstone but no
		// entry is actually covered: discard the identical rewrite and
		// remember the watermark so this file is not scanned again.
		_ = d.opts.FS.Remove(newPath)
		d.eagerMu.Lock()
		d.eagerDone[f.FileNum] = applicable
		d.eagerMu.Unlock()
		return nil
	}

	edit := &manifest.VersionEdit{
		Deleted: []manifest.DeletedFileEntry{{Level: l, FileNum: f.FileNum}},
	}
	if meta.HasEntries() {
		edit.Added = []manifest.NewFileEntry{{Level: l, RunID: runID, Meta: fileMetaFrom(newFn, meta)}}
		// Before the install: should it fail, removeTable forgets the
		// watermark together with the file.
		d.eagerMu.Lock()
		d.eagerDone[newFn] = applicable
		d.eagerMu.Unlock()
	} else {
		_ = d.opts.FS.Remove(newPath)
	}
	if err := d.installEdit(edit, nil, nil); err != nil {
		return err
	}
	d.stats.PagesDropped.Add(int64(it.Dropped()))
	d.stats.RangeCoveredDropped.Add(int64(covered))
	d.stats.CompactBytesRead.Add(int64(it.BytesLoaded()))
	d.stats.CompactBytesWritten.Add(int64(meta.Size))
	return nil
}
