// Package manifest tracks the LSM tree's shape: which sstables exist, at
// which level, grouped into which sorted runs, plus the metadata FADE needs
// to age tombstones (per-file oldest tombstone, tombstone counts). Versions
// are immutable; every flush/compaction applies a VersionEdit producing a
// new Version, and edits are logged durably for crash recovery. Versions are
// reference-counted, and a version holds a reference on each of its files:
// a file is dead, and may be unlinked, once no version holds it.
package manifest

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/base"
)

// NumLevels is the fixed depth of the tree. Level 0 holds freshly flushed,
// overlapping runs; deeper levels are shaped by the compaction policy.
const NumLevels = 7

// FileMetadata describes one sstable. Its fields are immutable once a
// version holds it; besides the count of versions holding it, only the
// eager-erase watermark EagerDone changes.
type FileMetadata struct {
	// FileNum names the file on disk.
	FileNum base.FileNum
	// Size is the file size in bytes.
	Size uint64
	// Smallest and Largest bound the internal keys in the file.
	Smallest base.InternalKey
	Largest  base.InternalKey

	// NumEntries, NumDeletes and NumRangeDeletes mirror the table's
	// properties so the compaction picker never needs to open files.
	NumEntries      uint64
	NumDeletes      uint64
	NumRangeDeletes uint64
	// HasTombstones reports whether OldestTombstone is meaningful.
	HasTombstones bool
	// OldestTombstone is the creation time of the file's oldest point or
	// range tombstone. FADE compares it against the cumulative per-level
	// TTL to detect expiry.
	OldestTombstone base.Timestamp
	// DeleteKeyMin/Max span the secondary delete keys in the file.
	DeleteKeyMin base.DeleteKey
	DeleteKeyMax base.DeleteKey
	// LargestSeqNum is the largest sequence number in the file; eager
	// range-delete drops require it to be below the tombstone's.
	LargestSeqNum base.SeqNum
	// SmallestSeqNum is the smallest entry sequence number in the file;
	// a range tombstone is retired only when no live file could still
	// hold entries older than it.
	SmallestSeqNum base.SeqNum
	// HasDuplicates reports whether the file holds multiple versions of
	// some user key; partial erasure of such files is unsafe.
	HasDuplicates bool

	// RangeTombstones are the file's range tombstones (NumRangeDeletes of
	// them), held in memory only: the manifest encoding carries the count,
	// the table file carries the tombstones. Set by whoever creates the
	// metadata — the table's writer, or VersionSet.LoadRangeTombstones for
	// files recovered from the manifest — before any version holds the file.
	RangeTombstones []base.RangeTombstone

	// EagerDone is the highest range-tombstone sequence number an eager
	// erase has already applied to the file (zero for none), so a file whose
	// delete-key span merely intersects a tombstone is not rewritten again
	// and again. It is runtime state, never encoded: it dies with the
	// metadata.
	EagerDone atomic.Uint64

	// refs counts the live versions holding the file (see Version.Unref).
	refs atomic.Int32
}

// TombstoneDensity returns the fraction of the file's entries that are
// tombstones, FADE's tie-breaking criterion.
func (f *FileMetadata) TombstoneDensity() float64 {
	if f.NumEntries == 0 {
		return 0
	}
	return float64(f.NumDeletes) / float64(f.NumEntries)
}

// Overlaps reports whether the file's user-key range intersects [lo, hi]
// (inclusive bounds).
func (f *FileMetadata) Overlaps(lo, hi []byte) bool {
	return base.Compare(f.Largest.UserKey, lo) >= 0 && base.Compare(f.Smallest.UserKey, hi) <= 0
}

// Run is a sorted run: files disjoint in key space, ordered by Smallest.
// A level 0 run is born as one file (one flush) and stays one run; an
// in-place rewrite larger than the target file size leaves several files
// in it. Deeper levels hold one run under leveling or up to the size ratio
// T runs under tiering.
type Run struct {
	// ID orders runs within a level: higher IDs are newer.
	ID    uint64
	Files []*FileMetadata
}

// Size returns the run's total byte size.
func (r *Run) Size() uint64 {
	var n uint64
	for _, f := range r.Files {
		n += f.Size
	}
	return n
}

// Find returns the files in the run overlapping [lo, hi] user keys. They are
// contiguous in a run, so the result is a capped sub-slice of r.Files, made
// without allocating; callers must not modify its elements.
func (r *Run) Find(lo, hi []byte) []*FileMetadata {
	// Binary search for the first file whose Largest >= lo.
	i := sort.Search(len(r.Files), func(i int) bool {
		return base.Compare(r.Files[i].Largest.UserKey, lo) >= 0
	})
	j := i
	for j < len(r.Files) && base.Compare(r.Files[j].Smallest.UserKey, hi) <= 0 {
		j++
	}
	return r.Files[i:j:j]
}

// Version is an immutable snapshot of the tree's shape. Its files stay on
// disk while it is referenced: by the version set while it is current, and
// by each reader or job that took it with VersionSet.Ref until its Unref.
type Version struct {
	// Levels[l] holds the level's runs, newest first.
	Levels [NumLevels][]*Run

	// rangeTombstones concatenates the files' range tombstones and
	// numEntries sums their entry counts; both are computed once, when the
	// version is built.
	rangeTombstones []base.RangeTombstone
	numEntries      uint64

	// refs counts the version's holders. The version set installs a
	// version with one (its own) and takes the files' references then.
	refs atomic.Int32
}

// Unref drops one reference to v. The last one releases v's hold on its
// files, and Unref returns those v was the last holder of: no version holds
// them any more, so nothing can open them again, and the caller unlinks them.
func (v *Version) Unref() []base.FileNum {
	if v.refs.Add(-1) > 0 {
		return nil
	}
	var dead []base.FileNum
	v.AllFiles(func(_ int, f *FileMetadata) {
		if f.refs.Add(-1) == 0 {
			dead = append(dead, f.FileNum)
		}
	})
	return dead
}

// RangeTombstones returns every range tombstone carried by the version's
// files. The slice is shared and immutable, like the version itself.
func (v *Version) RangeTombstones() []base.RangeTombstone { return v.rangeTombstones }

// NumEntries returns the total entry count of the version's files (from
// file metadata): what one full merge over the version steps through.
func (v *Version) NumEntries() uint64 { return v.numEntries }

// LevelSize returns the total bytes at level l.
func (v *Version) LevelSize(l int) uint64 {
	var n uint64
	for _, r := range v.Levels[l] {
		n += r.Size()
	}
	return n
}

// NumFiles returns the total file count across all levels.
func (v *Version) NumFiles() int {
	n := 0
	for l := range v.Levels {
		for _, r := range v.Levels[l] {
			n += len(r.Files)
		}
	}
	return n
}

// TotalSize returns the total bytes across all levels.
func (v *Version) TotalSize() uint64 {
	var n uint64
	for l := range v.Levels {
		n += v.LevelSize(l)
	}
	return n
}

// MaxPopulatedLevel returns the deepest level holding data, or 0.
func (v *Version) MaxPopulatedLevel() int {
	max := 0
	for l := range v.Levels {
		if len(v.Levels[l]) > 0 {
			max = l
		}
	}
	return max
}

// AllFiles calls fn for every file with its level.
func (v *Version) AllFiles(fn func(level int, f *FileMetadata)) {
	for l := range v.Levels {
		for _, r := range v.Levels[l] {
			for _, f := range r.Files {
				fn(l, f)
			}
		}
	}
}

// clone returns a shallow copy whose run slices can be mutated without
// affecting v. Runs themselves are copied lazily by the edit application.
func (v *Version) clone() *Version {
	nv := &Version{}
	for l := range v.Levels {
		nv.Levels[l] = append([]*Run(nil), v.Levels[l]...)
	}
	return nv
}

// NewFileEntry places a file in a level and run.
type NewFileEntry struct {
	Level int
	RunID uint64
	Meta  *FileMetadata
}

// DeletedFileEntry names a file removed from a level.
type DeletedFileEntry struct {
	Level   int
	FileNum base.FileNum
}

// VersionEdit describes one atomic change to the tree.
type VersionEdit struct {
	// Added and Deleted list the file changes.
	Added   []NewFileEntry
	Deleted []DeletedFileEntry
	// LastSeqNum, NextFileNum and LogNum (the WAL watermark) persist
	// engine counters when non-zero.
	LastSeqNum  base.SeqNum
	NextFileNum base.FileNum
	LogNum      base.FileNum
	// NextRunID persists the run-id counter when non-zero.
	NextRunID uint64
}

// Apply produces the Version resulting from applying e to v.
func (v *Version) Apply(e *VersionEdit) (*Version, error) {
	nv := v.clone()
	for _, d := range e.Deleted {
		if d.Level < 0 || d.Level >= NumLevels {
			return nil, fmt.Errorf("manifest: delete references level %d", d.Level)
		}
		found := false
		runs := nv.Levels[d.Level]
		for ri, r := range runs {
			for fi, f := range r.Files {
				if f.FileNum == d.FileNum {
					nr := &Run{ID: r.ID, Files: append([]*FileMetadata(nil), r.Files...)}
					nr.Files = append(nr.Files[:fi], nr.Files[fi+1:]...)
					runs[ri] = nr
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("manifest: delete of unknown file %s at level %d", d.FileNum, d.Level)
		}
	}
	for _, a := range e.Added {
		if a.Level < 0 || a.Level >= NumLevels {
			return nil, fmt.Errorf("manifest: add references level %d", a.Level)
		}
		runs := nv.Levels[a.Level]
		idx := -1
		for ri, r := range runs {
			if r.ID == a.RunID {
				idx = ri
				break
			}
		}
		if idx < 0 {
			// Insert the new run keeping newest-first order.
			nr := &Run{ID: a.RunID}
			pos := sort.Search(len(runs), func(i int) bool { return runs[i].ID < a.RunID })
			runs = append(runs, nil)
			copy(runs[pos+1:], runs[pos:])
			runs[pos] = nr
			nv.Levels[a.Level] = runs
			idx = pos
		} else {
			runs[idx] = &Run{ID: runs[idx].ID, Files: append([]*FileMetadata(nil), runs[idx].Files...)}
		}
		r := runs[idx]
		pos := sort.Search(len(r.Files), func(i int) bool {
			return base.Compare(r.Files[i].Smallest.UserKey, a.Meta.Smallest.UserKey) > 0
		})
		r.Files = append(r.Files, nil)
		copy(r.Files[pos+1:], r.Files[pos:])
		r.Files[pos] = a.Meta
	}
	// Drop runs emptied by deletions.
	for l := range nv.Levels {
		kept := nv.Levels[l][:0]
		for _, r := range nv.Levels[l] {
			if len(r.Files) > 0 {
				kept = append(kept, r)
			}
		}
		nv.Levels[l] = kept
	}
	nv.AllFiles(func(_ int, f *FileMetadata) {
		nv.rangeTombstones = append(nv.rangeTombstones, f.RangeTombstones...)
		nv.numEntries += f.NumEntries
	})
	return nv, nil
}

// ---------------------------------------------------------------------------
// VersionEdit wire encoding

const (
	tagAdded       = 1
	tagDeleted     = 2
	tagLastSeq     = 3
	tagNextFileNum = 4
	tagLogNum      = 5
	tagNextRunID   = 6
)

func appendKey(dst []byte, k base.InternalKey) []byte {
	enc := k.Encode(nil)
	dst = binary.AppendUvarint(dst, uint64(len(enc)))
	return append(dst, enc...)
}

func readKey(b []byte) (base.InternalKey, []byte, error) {
	n, used := binary.Uvarint(b)
	if used <= 0 || int(n) > len(b)-used {
		return base.InternalKey{}, b, fmt.Errorf("manifest: truncated key")
	}
	enc := b[used : used+int(n)]
	return base.DecodeInternalKey(append([]byte(nil), enc...)), b[used+int(n):], nil
}

// Encode serializes the edit for the manifest log.
func (e *VersionEdit) Encode() []byte {
	var b []byte
	for _, a := range e.Added {
		b = binary.AppendUvarint(b, tagAdded)
		b = binary.AppendUvarint(b, uint64(a.Level))
		b = binary.AppendUvarint(b, a.RunID)
		f := a.Meta
		b = binary.AppendUvarint(b, uint64(f.FileNum))
		b = binary.AppendUvarint(b, f.Size)
		b = appendKey(b, f.Smallest)
		b = appendKey(b, f.Largest)
		b = binary.AppendUvarint(b, f.NumEntries)
		b = binary.AppendUvarint(b, f.NumDeletes)
		b = binary.AppendUvarint(b, f.NumRangeDeletes)
		hasTomb := uint64(0)
		if f.HasTombstones {
			hasTomb = 1
		}
		b = binary.AppendUvarint(b, hasTomb)
		b = binary.AppendUvarint(b, uint64(f.OldestTombstone))
		b = binary.AppendUvarint(b, f.DeleteKeyMin)
		b = binary.AppendUvarint(b, f.DeleteKeyMax)
		b = binary.AppendUvarint(b, uint64(f.LargestSeqNum))
		b = binary.AppendUvarint(b, uint64(f.SmallestSeqNum))
		dup := uint64(0)
		if f.HasDuplicates {
			dup = 1
		}
		b = binary.AppendUvarint(b, dup)
	}
	for _, d := range e.Deleted {
		b = binary.AppendUvarint(b, tagDeleted)
		b = binary.AppendUvarint(b, uint64(d.Level))
		b = binary.AppendUvarint(b, uint64(d.FileNum))
	}
	if e.LastSeqNum != 0 {
		b = binary.AppendUvarint(b, tagLastSeq)
		b = binary.AppendUvarint(b, uint64(e.LastSeqNum))
	}
	if e.NextFileNum != 0 {
		b = binary.AppendUvarint(b, tagNextFileNum)
		b = binary.AppendUvarint(b, uint64(e.NextFileNum))
	}
	if e.LogNum != 0 {
		b = binary.AppendUvarint(b, tagLogNum)
		b = binary.AppendUvarint(b, uint64(e.LogNum))
	}
	if e.NextRunID != 0 {
		b = binary.AppendUvarint(b, tagNextRunID)
		b = binary.AppendUvarint(b, e.NextRunID)
	}
	return b
}

type uvarReader struct {
	b   []byte
	err error
}

func (r *uvarReader) next() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("manifest: truncated edit")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// DecodeVersionEdit parses an edit from its wire form.
func DecodeVersionEdit(b []byte) (*VersionEdit, error) {
	e := &VersionEdit{}
	r := &uvarReader{b: b}
	for len(r.b) > 0 && r.err == nil {
		tag := r.next()
		switch tag {
		case tagAdded:
			var a NewFileEntry
			a.Level = int(r.next())
			a.RunID = r.next()
			f := &FileMetadata{}
			f.FileNum = base.FileNum(r.next())
			f.Size = r.next()
			var err error
			if f.Smallest, r.b, err = readKey(r.b); err != nil {
				return nil, err
			}
			if f.Largest, r.b, err = readKey(r.b); err != nil {
				return nil, err
			}
			f.NumEntries = r.next()
			f.NumDeletes = r.next()
			f.NumRangeDeletes = r.next()
			f.HasTombstones = r.next() == 1
			f.OldestTombstone = base.Timestamp(r.next())
			f.DeleteKeyMin = r.next()
			f.DeleteKeyMax = r.next()
			f.LargestSeqNum = base.SeqNum(r.next())
			f.SmallestSeqNum = base.SeqNum(r.next())
			f.HasDuplicates = r.next() == 1
			a.Meta = f
			e.Added = append(e.Added, a)
		case tagDeleted:
			var d DeletedFileEntry
			d.Level = int(r.next())
			d.FileNum = base.FileNum(r.next())
			e.Deleted = append(e.Deleted, d)
		case tagLastSeq:
			e.LastSeqNum = base.SeqNum(r.next())
		case tagNextFileNum:
			e.NextFileNum = base.FileNum(r.next())
		case tagLogNum:
			e.LogNum = base.FileNum(r.next())
		case tagNextRunID:
			e.NextRunID = r.next()
		default:
			return nil, fmt.Errorf("manifest: unknown edit tag %d", tag)
		}
	}
	return e, r.err
}
