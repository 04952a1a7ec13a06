package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/base"
	"repro/internal/event"
	"repro/internal/manifest"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// Checkpoint writes a self-contained, openable copy of the store to
// destDir (on the same FS): every live table file plus a fresh manifest.
// The checkpoint captures the state as of the implicit flush it performs;
// writes racing with the checkpoint may or may not be included.
func (d *DB) Checkpoint(destDir string) error {
	return d.CheckpointCtx(context.Background(), destDir)
}

// CheckpointCtx is Checkpoint honoring ctx: the deadline/cancel applies
// between file copies. A context error leaves no complete checkpoint behind;
// destDir may hold a partial copy the caller should discard.
func (d *DB) CheckpointCtx(ctx context.Context, destDir string) error {
	start := time.Now()
	err := d.checkpoint(ctx, destDir)
	dur := time.Since(start)
	d.traceOp(opCheckpoint, start, dur, err)
	if err == nil {
		d.stats.Checkpoints.Add(1)
		d.trace.Emit(event.Event{Type: event.Checkpoint, Dur: dur})
	}
	return err
}

func (d *DB) checkpoint(ctx context.Context, destDir string) error {
	// A checkpoint is a write of the whole store; in read-only mode it
	// fails fast like any other write (and the flush below would fail
	// anyway).
	if err := d.BackgroundError(); err != nil {
		return err
	}
	if err := d.Flush(); err != nil {
		return err
	}
	// The reference keeps the version's files on disk while they are
	// copied; maintenance runs on beside the copy.
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	v := d.vs.Ref()
	lastSeq := d.vs.LastSeqNum()
	nextFile := d.vs.NextFileNum()
	nextRun := d.vs.NextRunID()
	d.mu.Unlock()
	defer d.unref(v)

	fs := d.opts.FS
	if err := fs.MkdirAll(destDir); err != nil {
		return err
	}

	// Copy live tables and record their placement.
	edit := &manifest.VersionEdit{}
	type placement struct {
		level int
		runID uint64
		meta  *manifest.FileMetadata
	}
	var files []placement
	for l := range v.Levels {
		for _, r := range v.Levels[l] {
			for _, f := range r.Files {
				files = append(files, placement{l, r.ID, f})
			}
		}
	}
	for _, p := range files {
		// The copy loop is the other long-running phase; bail out between
		// files once the caller's context fires.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("acheron: checkpoint interrupted: %w", err)
		}
		src := manifest.MakeFilename(d.dirname, manifest.FileTypeTable, p.meta.FileNum)
		dst := manifest.MakeFilename(destDir, manifest.FileTypeTable, p.meta.FileNum)
		if err := copyVFSFile(fs, src, dst); err != nil {
			return fmt.Errorf("acheron: checkpoint copy %s: %w", src, err)
		}
		edit.Added = append(edit.Added, manifest.NewFileEntry{Level: p.level, RunID: p.runID, Meta: p.meta})
	}
	// The destination's versions take references on the metadata they
	// hold, so it gets its own copies — by way of the manifest encoding,
	// which is all it records — and never counts among this store's holders.
	edit, err := manifest.DecodeVersionEdit(edit.Encode())
	if err != nil {
		return err
	}

	// A fresh manifest in the destination makes it independently
	// openable. Commit stamps the version set's own counters into
	// the edit, so seed them from the source first.
	vs, err := manifest.Create(fs, destDir)
	if err != nil {
		return err
	}
	vs.SetLastSeqNum(lastSeq)
	vs.EnsureFileNum(nextFile)
	vs.EnsureRunID(nextRun)
	if _, err := vs.Commit(edit, nil, nil); err != nil {
		// The commit error is the one to report; the close error is dropped.
		vfs.BestEffortClose(vs)
		return err
	}
	return vs.Close()
}

// copyVFSFile duplicates a file through the VFS in bounded chunks. The
// source close error is surfaced through the named return so a failed
// read-side close cannot be masked by a successful copy.
func copyVFSFile(fs vfs.FS, src, dst string) (err error) {
	in, err := fs.Open(src)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := in.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	size, err := in.Size()
	if err != nil {
		return err
	}
	out, err := fs.Create(dst)
	if err != nil {
		return err
	}
	buf := make([]byte, 1<<20)
	var off int64
	for off < size {
		n := int64(len(buf))
		if size-off < n {
			n = size - off
		}
		if _, err := in.ReadAt(buf[:n], off); err != nil && !errors.Is(err, io.EOF) {
			vfs.BestEffortClose(out)
			return err
		}
		if _, err := out.Write(buf[:n]); err != nil {
			vfs.BestEffortClose(out)
			return err
		}
		off += n
	}
	if err := out.Sync(); err != nil {
		vfs.BestEffortClose(out)
		return err
	}
	return out.Close()
}

// VerifyChecksums reads every block of every live table, failing on the
// first checksum mismatch or structural inconsistency — a full-store
// scrub.
func (d *DB) VerifyChecksums() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	v := d.vs.Ref()
	d.mu.Unlock()
	defer d.unref(v)

	var files []*manifest.FileMetadata
	v.AllFiles(func(_ int, f *manifest.FileMetadata) { files = append(files, f) })
	for _, f := range files {
		r, err := d.cache.get(f.FileNum)
		if err != nil {
			return fmt.Errorf("acheron: scrub open %s: %w", f.FileNum, err)
		}
		if err := scrubTable(r, f); err != nil {
			return err
		}
	}
	return nil
}

// scrubTable walks every entry of f's table, checking their order and count.
func scrubTable(r *sstable.Reader, f *manifest.FileMetadata) error {
	it := r.NewIter()
	defer it.Close()
	var n uint64
	var last base.InternalKey
	for ok := it.First(); ok; ok = it.Next() {
		if n > 0 && it.Key().Compare(last) <= 0 {
			return fmt.Errorf("acheron: scrub %s: keys out of order at entry %d", f.FileNum, n)
		}
		last = it.Key().Clone()
		n++
	}
	if err := it.Error(); err != nil {
		return fmt.Errorf("acheron: scrub %s: %w", f.FileNum, err)
	}
	if n != f.NumEntries {
		return fmt.Errorf("acheron: scrub %s: %d entries on disk, metadata says %d", f.FileNum, n, f.NumEntries)
	}
	return nil
}
