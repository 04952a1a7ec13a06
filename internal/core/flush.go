package core

import (
	"time"

	"repro/internal/base"
	"repro/internal/manifest"
	"repro/internal/memtable"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// writerOptions builds the sstable writer configuration from the engine
// options.
func (d *DB) writerOptions() sstable.WriterOptions {
	return sstable.WriterOptions{
		BlockSize:       blockBytes,
		BloomBitsPerKey: d.opts.BloomBitsPerKey,
		PagesPerTile:    d.opts.PagesPerTile,
		DeleteKeyFunc:   d.opts.DeleteKeyFunc,
	}
}

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

	// The last commit group bound to this memtable may still be applying
	// its entries. That group took applyMu before the rotation that sealed
	// the table (both under commitMu), so one lock of applyMu waits it out.
	d.commit.applyMu.Lock()
	d.commit.applyMu.Unlock()

	ji := JobInfo{ID: d.sched.newID(), Kind: JobFlush, Started: time.Now()}
	d.traceJobClaim(ji.ID, "flush", 0, "")
	edit := &manifest.VersionEdit{}
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
	err := d.installEdit(edit, nil, func() {
		d.imm = d.imm[1:]
		d.stats.FlushQueueDepth.Set(int64(len(d.imm)))
	})
	if err != nil {
		d.recordJob(ji, err)
		return false, err
	}

	_ = d.opts.FS.Remove(manifest.MakeFilename(d.dirname, manifest.FileTypeLog, e.logNum))
	if len(edit.Added) > 0 {
		d.stats.Flushes.Add(1)
		d.stats.BytesFlushed.Add(int64(ji.BytesOut))
		d.stats.FlushLatency.Record(time.Since(ji.Started).Nanoseconds())
		d.recordJob(ji, nil)
	}
	return true, nil
}
