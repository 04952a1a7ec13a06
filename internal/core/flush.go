package core

import (
	"time"

	"repro/internal/base"
	"repro/internal/manifest"
	"repro/internal/memtable"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// writeMemTable materializes a memtable as a new level-0 table file. On any
// error after the file is created, the partial table is closed and unlinked,
// so a failed flush leaves no orphan behind; a finished table is the caller's
// to install (installEdit).
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
	w := d.writers.Get(f)
	defer d.writers.Put(w)
	it := m.NewIter()
	defer it.Close()
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
	return fn, meta, nil
}

// Flush synchronously persists the mutable memtable and drains every sealed
// one to level 0 — or, for one whose tombstones have outlived level 0's TTL
// budget, straight into level 1.
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

	// The last commit group bound to this memtable may still be applying
	// its entries. That group took applyMu before the rotation that sealed
	// the table (both under commitMu), so one lock of applyMu waits it out.
	d.commit.applyMu.Lock()
	d.commit.applyMu.Unlock()

	start := time.Now()
	// A memtable whose tombstones have already outlived level 0's budget
	// merges straight into level 1: as a level-0 table it would only be
	// read back and rewritten there by the next TTL job.
	if j := d.pickFlushJob(e.mem); j != nil {
		if err := d.runCompactionJob(j); err != nil {
			return false, err
		}
		// Popped at the install, and the job's claim, which holds the
		// memtable's key span, is gone: drop the DB's reference.
		e.mem.Unref()
		_ = d.opts.FS.Remove(manifest.MakeFilename(d.dirname, manifest.FileTypeLog, e.logNum))
		d.stats.Flushes.Add(1)
		d.stats.FlushesToL1.Add(1)
		d.stats.FlushLatency.Record(time.Since(start).Nanoseconds())
		return true, nil
	}

	ji := JobInfo{ID: d.sched.newID(), Kind: JobFlush, Started: start}
	d.traceJobClaim(ji.ID, "flush", 0, "")
	edit := &manifest.VersionEdit{LogNum: d.unflushedLog()}
	if !e.mem.Empty() {
		fn, meta, err := d.writeMemTable(e.mem)
		if err != nil {
			d.recordJob(ji, err)
			return false, err
		}
		ji.BytesOut = meta.Size
		edit.Added = []manifest.NewFileEntry{{Level: 0, RunID: d.vs.AllocRunID(), Meta: fileMetaFrom(fn, meta)}}
	}

	// The version install is atomic with the imm pop; the table's range
	// tombstones ride on its metadata, so readers find them in the new
	// version the moment the memtable is gone.
	if err := d.installEdit(edit, nil, d.popImmLocked); err != nil {
		d.recordJob(ji, err)
		return false, err
	}
	e.mem.Unref()

	_ = d.opts.FS.Remove(manifest.MakeFilename(d.dirname, manifest.FileTypeLog, e.logNum))
	if len(edit.Added) > 0 {
		d.stats.Flushes.Add(1)
		d.stats.BytesFlushed.Add(int64(ji.BytesOut))
		d.stats.FlushLatency.Record(time.Since(ji.Started).Nanoseconds())
		d.recordJob(ji, nil)
	}
	return true, nil
}

// unflushedLog is the WAL segment of the oldest memtable left unflushed
// once imm[0]'s flush lands: a flush edit's LogNum, below which recovery
// reads no segment. Caller holds flushMu, so imm[0] is the one flushing.
func (d *DB) unflushedLog() base.FileNum {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.imm) > 1 {
		return d.imm[1].logNum
	}
	return d.memLog
}

// popImmLocked drops the oldest sealed memtable from the flush queue, in
// the critical section that installs the version holding its data. Caller
// holds d.mu.
func (d *DB) popImmLocked() {
	d.imm = d.imm[1:]
	d.stats.FlushQueueDepth.Set(int64(len(d.imm)))
}

// pickFlushJob claims the job that merges sealed memtable m straight into
// level 1 (compaction.Layout.PickFlush), or returns nil when m is to be
// written to level 0: its tombstones are within level 0's budget, the tree
// is not in the shape for it, or a running job's claim overlaps the merge.
func (d *DB) pickFlushJob(m *memtable.MemTable) *compactJob {
	meta := memTableMeta(m)
	return d.claimJob(func(pv pickView) *compactJob {
		return candidateJob(d.policy.PickFlush(pv.rs.version, m, meta, pv.now, len(pv.snaps) > 0, pv.claims))
	})
}

// memTableMeta describes sealed memtable m as the level-0 table
// writeMemTable would make of it — its user-key span and the tombstone
// summary fileMetaFrom would read from the table's properties — so the
// picker can judge the table before it exists. The span's keys alias m's
// arena: they live as long as the DB's reference to m.
func memTableMeta(m *memtable.MemTable) *manifest.FileMetadata {
	f := &manifest.FileMetadata{}
	f.OldestTombstone, f.HasTombstones = m.OldestTombstone()
	it := m.NewIter()
	defer it.Close()
	if !it.First() {
		f.Smallest, f.Largest = wholeKeySpace()
		return f
	}
	f.Smallest = it.Key()
	it.Last()
	f.Largest = it.Key()
	return f
}
