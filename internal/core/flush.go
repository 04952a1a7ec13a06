package core

import (
	"time"

	"repro/internal/base"
	"repro/internal/event"
	"repro/internal/manifest"
	"repro/internal/memtable"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// writerOptions builds the sstable writer configuration from the engine
// options.
func (d *DB) writerOptions() sstable.WriterOptions {
	return sstable.WriterOptions{
		BlockSize:         blockBytes,
		BloomBitsPerKey:   d.opts.BloomBitsPerKey,
		PrefixBloomLength: d.opts.PrefixBloomLength,
		PagesPerTile:      d.opts.PagesPerTile,
		DeleteKeyFunc:     d.opts.DeleteKeyFunc,
	}
}

// writeMemTable materializes a memtable as a new level-0 table file. On any
// error after the file is created, the partial table is closed and unlinked
// so a failed flush leaves no orphan behind.
func (d *DB) writeMemTable(m *memtable.MemTable) (_ base.FileNum, _ sstable.WriterMeta, err error) {
	fn := d.vs.AllocFileNum()
	path := manifest.MakeFilename(d.dirname, manifest.FileTypeTable, fn)
	f, err := d.opts.FS.Create(path)
	if err != nil {
		return 0, sstable.WriterMeta{}, err
	}
	defer func() {
		if err != nil {
			vfs.BestEffortClose(f)
			_ = d.opts.FS.Remove(path)
		}
	}()
	w := sstable.NewWriter(f, d.writerOptions())
	it := m.NewIter()
	for valid := it.First(); valid; valid = it.Next() {
		if err = w.Add(it.Key(), it.Value()); err != nil {
			return 0, sstable.WriterMeta{}, err
		}
	}
	for _, rt := range m.RangeTombstones() {
		if err = w.AddRangeTombstone(rt); err != nil {
			return 0, sstable.WriterMeta{}, err
		}
	}
	meta, err := w.Finish()
	if err != nil {
		return 0, sstable.WriterMeta{}, err
	}
	d.stats.FilesCreated.Add(1)
	d.trace.Emit(event.Event{Type: event.FileCreate, File: uint64(fn), Bytes: int64(meta.Size)})
	return fn, meta, nil
}

// Flush synchronously persists the mutable memtable and drains every sealed
// one to level 0.
func (d *DB) Flush() error {
	start := time.Now()
	err := d.flushAll()
	d.traceOp(opFlush, start, time.Since(start), err)
	return err
}

func (d *DB) flushAll() error {
	// Rotation requires the pipeline's commitMu (ordered before d.mu): a
	// commit group in its WAL stage must not have its captured memtable and
	// WAL segment swapped out from under it.
	d.commit.commitMu.Lock()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.commit.commitMu.Unlock()
		return ErrClosed
	}
	if err := d.backgroundErrLocked(); err != nil {
		d.mu.Unlock()
		d.commit.commitMu.Unlock()
		return err
	}
	if !d.mem.Empty() {
		if err := d.rotateLocked(); err != nil {
			d.mu.Unlock()
			d.commit.commitMu.Unlock()
			return err
		}
	}
	d.mu.Unlock()
	d.commit.commitMu.Unlock()
	for {
		did, err := d.runFlushStep()
		if err != nil {
			return err
		}
		if !did {
			return nil
		}
	}
}

// flushOne flushes the oldest sealed memtable, if any. Caller holds
// flushMu.
func (d *DB) flushOne() (bool, error) {
	d.mu.Lock()
	if len(d.imm) == 0 {
		d.mu.Unlock()
		return false, nil
	}
	e := d.imm[0]
	d.mu.Unlock()

	// A commit group that captured this memtable while it was mutable may
	// still be applying entries. The table is sealed (no new writer refs
	// possible), so this wait is bounded by the in-flight group applies.
	e.mem.WaitWriters()

	id := d.sched.newID()
	d.traceJobClaim(id, "flush", 0, "")
	start := time.Now()
	var (
		added []manifest.NewFileEntry
		size  uint64
		newFn base.FileNum
		nRT   uint64
	)
	if !e.mem.Empty() {
		fn, meta, err := d.writeMemTable(e.mem)
		if err != nil {
			d.recordFailedJob(JobFlush, start, err)
			return false, err
		}
		newFn = fn
		size = meta.Size
		nRT = meta.Props.NumRangeDeletes
		added = append(added, manifest.NewFileEntry{Level: 0, RunID: d.vs.AllocRunID(), Meta: fileMetaFrom(fn, meta)})
	}

	d.mu.Lock()
	// The WAL segments of everything still buffered must survive; the
	// oldest survivor is the next sealed memtable's (or the mutable
	// one's) log. A rotation racing the commit below only appends newer
	// segments, so the value read here stays a valid lower bound.
	logNum := d.memLog
	if len(d.imm) > 1 {
		logNum = d.imm[1].logNum
	}
	d.mu.Unlock()
	edit := &manifest.VersionEdit{Added: added}
	if !d.opts.DisableWAL {
		edit.LogNum = logNum
	}
	// The manifest append+fsync runs outside d.mu — a concurrent
	// compaction commit holding the version set's commit mutex across its
	// own fsync must not park the whole read/write path behind this
	// flush. The install callback then makes the version installation
	// atomic with the imm pop under d.mu: readers never see the flushed
	// table and its still-queued memtable at once, nor neither.
	var err error
	if nRT > 0 {
		// Cache the table's range tombstones before its version installs:
		// the install pops the memtable, and from then on this cache is the
		// only place readers find them.
		err = d.loadFileRTs(newFn)
	}
	if err == nil {
		err = d.vs.LogAndApplyInstall(edit, func(commit func()) {
			d.mu.Lock()
			commit()
			d.imm = d.imm[1:]
			d.stats.FlushQueueDepth.Set(int64(len(d.imm)))
			d.mu.Unlock()
		})
	}
	if err != nil {
		// The new table file is orphaned (its edit never committed);
		// remove it so a retry does not leak one file per attempt.
		if len(added) > 0 {
			d.removeTable(newFn)
		}
		d.recordFailedJob(JobFlush, start, err)
		return false, err
	}
	d.invalidateReadViews()
	// The flush queue shrank (and L0 is examined afresh by stalled
	// writers); wake them.
	d.wakeStalledWriters()
	d.notifyWork()

	if !d.opts.DisableWAL && e.logNum != 0 {
		_ = d.opts.FS.Remove(manifest.MakeFilename(d.dirname, manifest.FileTypeLog, e.logNum))
	}
	if len(added) > 0 {
		d.stats.Flushes.Add(1)
		d.stats.BytesFlushed.Add(int64(size))
		d.stats.FlushLatency.Record(time.Since(start).Nanoseconds())
		d.recordJob(JobInfo{
			ID:       id,
			Kind:     JobFlush,
			Started:  start,
			Finished: time.Now(),
			BytesOut: size,
		})
	}
	return true, nil
}
