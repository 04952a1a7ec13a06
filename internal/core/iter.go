package core

import (
	"time"

	"repro/internal/base"
	"repro/internal/iterator"
	"repro/internal/manifest"
	"repro/internal/readview"
)

// IterOptions configure a range iterator.
type IterOptions struct {
	// LowerBound (inclusive) and UpperBound (exclusive) restrict the
	// iteration to user keys in [LowerBound, UpperBound).
	LowerBound []byte
	UpperBound []byte
	// Prefix restricts the scan to keys starting with this prefix: it
	// implies bounds [Prefix, prefix-successor(Prefix)), intersected with
	// any explicit bounds, and is otherwise an ordinary bounded scan.
	Prefix []byte
	// Snapshot pins the view; nil reads the latest state.
	Snapshot *Snapshot
}

// Iter is a user-facing iterator over live keys in ascending order.
// Tombstoned, superseded, and range-deleted entries are skipped. An Iter
// holds its version's table files on disk; Close it when done.
type Iter struct {
	d     *DB
	merge *iterator.Merge
	opts  IterOptions
	rs    readState
	// viewDeferred marks a scan that ran the plain merge because its
	// version's sorted view was not yet earned; Close credits its steps.
	viewDeferred bool
	// rangeDels is false when no range tombstone can ever be visible to
	// this scan, so settle skips the delete-key extraction per entry.
	rangeDels bool

	key     []byte
	value   []byte
	valid   bool
	decided bool // i.key holds the last user key already resolved
	sought  bool // at least one positioning call has run
	stepped int64
	closed  bool
	err     error
}

// Stepped returns the number of internal entries (versions, tombstones)
// the iterator has examined — the read-amplification cost of garbage the
// compaction policy has not yet purged.
func (i *Iter) Stepped() int64 { return i.stepped }

// NewIter opens an iterator. The returned iterator is unpositioned; call
// First or SeekGE. It holds the files of the version it reads until Close.
func (d *DB) NewIter(opts IterOptions) (*Iter, error) {
	start := time.Now()
	it, err := d.newIter(opts)
	d.stats.ItersOpened.Add(1)
	d.traceOp(opIterOpen, start, time.Since(start), err)
	return it, err
}

func (d *DB) newIter(opts IterOptions) (*Iter, error) {
	rs, err := d.acquireReadState(opts.Snapshot)
	if err != nil {
		return nil, err
	}
	if opts.Prefix != nil {
		// A prefix implies bounds [Prefix, successor); intersect with any
		// explicit bounds so settle() and First/SeekGE enforce them.
		if opts.LowerBound == nil || base.Compare(opts.Prefix, opts.LowerBound) > 0 {
			opts.LowerBound = opts.Prefix
		}
		if succ := prefixSuccessor(opts.Prefix); succ != nil {
			if opts.UpperBound == nil || base.Compare(succ, opts.UpperBound) < 0 {
				opts.UpperBound = succ
			}
		}
	}
	it := &Iter{d: d, opts: opts, rs: rs}
	it.rangeDels = d.opts.DeleteKeyFunc != nil && rs.hasRangeTombstones()

	// One Concat per sorted run, in version order (L0 newest-run-first down
	// to the last level) — the fixed run order a cached view's selectors
	// refer to.
	var runIters []iterator.Internal
	for l := 0; l < manifest.NumLevels; l++ {
		for _, run := range rs.version.Levels[l] {
			runIters = append(runIters, it.newRunConcat(run.Files))
		}
	}

	sources := make([]iterator.Internal, 0, len(runIters)+1+len(rs.imms))
	sources = append(sources, rs.mem.NewIter())
	for i := len(rs.imms) - 1; i >= 0; i-- {
		sources = append(sources, rs.imms[i].mem.NewIter())
	}

	// Cached sorted view: with at least two runs the per-Next heap work is
	// real, and the view replaces it with one cursor advance. The view is
	// keyed by version identity, so snapshots and mid-scan compactions are
	// naturally correct: this read state pins rs.version, and the view never
	// describes anything else. A build merges the whole version, so the cache
	// runs it only once view-less scans of this version have stepped over
	// that many entries themselves (Close credits them); until then, and
	// after a failed build, the plain merge serves.
	var view *readview.View
	if n := rs.version.NumEntries(); d.readViews != nil && len(runIters) >= 2 && n <= readViewMaxEntries {
		view, err = d.readViews.Get(rs.version, n, func() (*readview.View, error) {
			return readview.Build(runIters, readview.DefaultAnchorInterval)
		})
		it.viewDeferred = view == nil && err == nil
	}
	if view != nil {
		// The same Concats serve as the view's cursors: Build may have
		// walked them, but readview.Iter repositions every run on
		// First/SeekGE.
		sources = append(sources, readview.NewIter(view, runIters))
	} else {
		sources = append(sources, runIters...)
	}
	it.merge = iterator.NewMerge(sources...)
	return it, nil
}

// newRunConcat builds the lazily-opening Concat over one run's files.
func (it *Iter) newRunConcat(files []*manifest.FileMetadata) iterator.Internal {
	d := it.d
	return iterator.NewConcat(len(files),
		func(i int) (base.InternalKey, base.InternalKey) {
			return files[i].Smallest, files[i].Largest
		},
		func(i int) (iterator.Internal, error) {
			r, err := d.cache.get(files[i].FileNum)
			if err != nil {
				return nil, err
			}
			d.stats.IterTablesOpened.Add(1)
			return r.NewIter(), nil
		})
}

// prefixSuccessor returns the smallest key greater than every key with the
// given prefix, or nil if no such key exists (the prefix is all 0xff).
func prefixSuccessor(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			succ := append([]byte(nil), prefix[:i+1]...)
			succ[i]++
			return succ
		}
	}
	return nil
}

// Close releases the table pages the iterator pins, its memtables and its
// version, unlinking the files only it still held. Closing twice is safe.
func (i *Iter) Close() error {
	if !i.closed {
		i.closed = true
		i.merge.Close()
		if i.viewDeferred {
			i.d.readViews.Credit(i.rs.version, uint64(i.stepped))
		}
		i.d.release(i.rs)
	}
	i.valid = false
	return i.err
}

// Valid reports whether the iterator is positioned on a live entry.
func (i *Iter) Valid() bool { return i.valid }

// Error returns the first error encountered.
func (i *Iter) Error() error { return i.err }

// Key returns the current user key. The slice is stable until the next
// positioning call.
func (i *Iter) Key() []byte { return i.key }

// Value returns the current value, stable until the next positioning call.
func (i *Iter) Value() []byte { return i.value }

// First positions on the smallest live key within bounds.
func (i *Iter) First() bool {
	start, sampled := i.seekStart()
	i.decided = false
	var ok bool
	if i.opts.LowerBound != nil {
		ok = i.merge.SeekGE(base.MakeSearchKey(i.opts.LowerBound, base.MaxSeqNum))
	} else {
		ok = i.merge.First()
	}
	valid := i.settle(ok)
	i.recordSeek(start, sampled)
	return valid
}

// SeekGE positions on the first live key >= key (clamped to bounds).
func (i *Iter) SeekGE(key []byte) bool {
	start, sampled := i.seekStart()
	i.decided = false
	if i.opts.LowerBound != nil && base.Compare(key, i.opts.LowerBound) < 0 {
		key = i.opts.LowerBound
	}
	valid := i.settle(i.merge.SeekGE(base.MakeSearchKey(key, base.MaxSeqNum)))
	i.recordSeek(start, sampled)
	return valid
}

// seekStart counts one positioning call (distinguishing reseeks — calls
// beyond the iterator's first) and, when the op is sampled, reads the clock
// for latency accounting.
func (i *Iter) seekStart() (time.Time, bool) {
	i.d.stats.IterSeeks.Add(1)
	if i.sought {
		i.d.stats.IterReseeks.Add(1)
	}
	i.sought = true
	if !i.d.opSampled() {
		return time.Time{}, false
	}
	return time.Now(), true
}

// recordSeek accounts a sampled positioning call (First/SeekGE) with its
// latency and begin/end trace events.
func (i *Iter) recordSeek(start time.Time, sampled bool) {
	if !sampled {
		return
	}
	dur := time.Since(start)
	i.d.stats.IterSeekLatency.Record(dur.Nanoseconds())
	i.d.traceOp(opIterSeek, start, dur, i.err)
}

// Next advances to the next live key. One in opSampleInterval steps records
// its wall-clock cost (including any tombstones and shadowed versions
// skipped while settling) in IterScanLatency.
func (i *Iter) Next() bool {
	if !i.valid {
		return false
	}
	if i.d.opSampled() {
		start := time.Now()
		ok := i.settle(i.merge.Next())
		dur := time.Since(start)
		i.d.stats.IterScanLatency.Record(dur.Nanoseconds())
		i.d.traceOp(opIterNext, start, dur, i.err)
		return ok
	}
	return i.settle(i.merge.Next())
}

// settle advances the merged stream to the next visible, live user key.
func (i *Iter) settle(ok bool) bool {
	i.valid = false
	for ok {
		ik := i.merge.Key()
		i.stepped++

		// Visibility: skip versions newer than the read sequence.
		if ik.SeqNum() > i.rs.seq {
			ok = i.merge.Next()
			continue
		}
		// Bounds.
		if i.opts.UpperBound != nil && base.Compare(ik.UserKey, i.opts.UpperBound) >= 0 {
			break
		}
		// Older versions of a key whose fate is already decided.
		if i.decided && base.Compare(ik.UserKey, i.key) == 0 {
			ok = i.merge.Next()
			continue
		}

		// The newest visible version of this key decides its fate.
		i.key = append(i.key[:0], ik.UserKey...)
		i.decided = true
		if ik.Kind() == base.KindSet && !i.coveredByRangeTombstone(i.merge.Value(), ik.SeqNum()) {
			i.value = append(i.value[:0], i.merge.Value()...)
			i.valid = true
			return true
		}
		// Tombstone or range-covered: the key is dead; keep scanning.
		ok = i.merge.Next()
	}
	if err := i.merge.Error(); err != nil {
		i.err = err
	}
	return false
}

// coveredByRangeTombstone applies the KiWi read-path filter.
func (i *Iter) coveredByRangeTombstone(value []byte, seq base.SeqNum) bool {
	return i.rangeDels && i.rs.covered(i.d.opts.DeleteKeyFunc(value), seq)
}
