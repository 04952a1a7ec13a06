package manifest

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/base"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// FileType distinguishes the engine's on-disk files.
type FileType int

const (
	// FileTypeTable is an sstable.
	FileTypeTable FileType = iota
	// FileTypeLog is a WAL segment.
	FileTypeLog
	// FileTypeManifest is a manifest log.
	FileTypeManifest
	// FileTypeCurrent is the CURRENT pointer file.
	FileTypeCurrent
	// FileTypeShards is a sharded store's meta file, at its root. A store
	// directory holds it (shard.Open) or CURRENT (core.Open), never both.
	FileTypeShards
)

// MakeFilename returns the path of a file of the given type and number.
func MakeFilename(dirname string, t FileType, fn base.FileNum) string {
	switch t {
	case FileTypeTable:
		return filepath.Join(dirname, fmt.Sprintf("%06d.sst", uint64(fn)))
	case FileTypeLog:
		return filepath.Join(dirname, fmt.Sprintf("%06d.log", uint64(fn)))
	case FileTypeManifest:
		return filepath.Join(dirname, fmt.Sprintf("MANIFEST-%06d", uint64(fn)))
	case FileTypeCurrent:
		return filepath.Join(dirname, "CURRENT")
	case FileTypeShards:
		return filepath.Join(dirname, "SHARDS")
	}
	panic("manifest: unknown file type")
}

// ParseFilename inverts MakeFilename for a bare file name (no directory).
func ParseFilename(name string) (t FileType, fn base.FileNum, ok bool) {
	switch {
	case name == "CURRENT":
		return FileTypeCurrent, 0, true
	case name == "SHARDS":
		return FileTypeShards, 0, true
	case strings.HasPrefix(name, "MANIFEST-"):
		var n uint64
		if _, err := fmt.Sscanf(name, "MANIFEST-%06d", &n); err != nil {
			return 0, 0, false
		}
		return FileTypeManifest, base.FileNum(n), true
	case strings.HasSuffix(name, ".sst"):
		var n uint64
		if _, err := fmt.Sscanf(name, "%06d.sst", &n); err != nil {
			return 0, 0, false
		}
		return FileTypeTable, base.FileNum(n), true
	case strings.HasSuffix(name, ".log"):
		var n uint64
		if _, err := fmt.Sscanf(name, "%06d.log", &n); err != nil {
			return 0, 0, false
		}
		return FileTypeLog, base.FileNum(n), true
	}
	return 0, 0, false
}

// VersionSet owns the current Version and its durable edit log. It is safe
// for concurrent use: counter allocation is atomic, and Commit callers
// are serialized only at the commit point (commitMu), so multiple
// maintenance jobs may prepare edits concurrently.
type VersionSet struct {
	fs      vfs.FS
	dirname string

	mu      sync.RWMutex
	current *Version

	// commitMu serializes the commit point: encoding an edit against the
	// current version, appending it to the manifest log, syncing, and
	// installing the resulting version happen atomically with respect to
	// other committers. Close takes it too, so a shutdown cannot race an
	// in-flight commit. Install order is commitMu, then mu:
	//
	// acheron:locks order manifest.VersionSet.commitMu < manifest.VersionSet.mu
	commitMu    sync.Mutex
	writer      *wal.Writer
	manifestNum base.FileNum
	// tailInDoubt: a failed commit's record may sit at the manifest's tail;
	// the next commit rolls before appending.
	tailInDoubt bool

	// The engine counters are atomics so allocation and stamping need no
	// external lock. They only ever move forward.
	nextFileNum atomic.Uint64 // next unallocated file number
	lastSeqNum  atomic.Uint64 // highest sequence number recorded durably
	logNum      atomic.Uint64 // WAL segment backing the mutable memtable
	nextRunID   atomic.Uint64 // next unallocated sorted-run id
}

// Current returns the current immutable Version, without a reference: its
// metadata may be read, but its files may be unlinked once a later version
// replaces it. A caller that opens files takes Ref instead.
func (vs *VersionSet) Current() *Version {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	return vs.current
}

// Ref returns the current Version with a reference taken, which keeps its
// files on disk until the caller's Unref. Taken under mu, the reference
// cannot race the install that drops the set's own.
func (vs *VersionSet) Ref() *Version {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	vs.current.refs.Add(1)
	return vs.current
}

// NextFileNum returns the next unallocated file number without reserving it.
func (vs *VersionSet) NextFileNum() base.FileNum {
	return base.FileNum(vs.nextFileNum.Load())
}

// AllocFileNum reserves and returns a fresh file number.
func (vs *VersionSet) AllocFileNum() base.FileNum {
	return base.FileNum(vs.nextFileNum.Add(1) - 1)
}

// EnsureFileNum raises the file-number counter to at least fn.
func (vs *VersionSet) EnsureFileNum(fn base.FileNum) { casMax(&vs.nextFileNum, uint64(fn)) }

// NextRunID returns the next unallocated run id without reserving it.
func (vs *VersionSet) NextRunID() uint64 { return vs.nextRunID.Load() }

// AllocRunID reserves and returns a fresh run id.
func (vs *VersionSet) AllocRunID() uint64 {
	return vs.nextRunID.Add(1) - 1
}

// EnsureRunID raises the run-id counter to at least id.
func (vs *VersionSet) EnsureRunID(id uint64) { casMax(&vs.nextRunID, id) }

// LastSeqNum returns the highest assigned sequence number.
func (vs *VersionSet) LastSeqNum() base.SeqNum { return base.SeqNum(vs.lastSeqNum.Load()) }

// SetLastSeqNum records seq as the highest assigned sequence number. The
// write path calls it under the engine's commit mutex, so values only grow.
func (vs *VersionSet) SetLastSeqNum(seq base.SeqNum) { vs.lastSeqNum.Store(uint64(seq)) }

// LogNum returns the WAL watermark: recovery replays no segment below it.
func (vs *VersionSet) LogNum() base.FileNum { return base.FileNum(vs.logNum.Load()) }

// casMax raises a monotone atomic to at least v.
func casMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Create initializes a brand-new store in dirname.
func Create(fs vfs.FS, dirname string) (*VersionSet, error) {
	if err := fs.MkdirAll(dirname); err != nil {
		return nil, err
	}
	vs := &VersionSet{fs: fs, dirname: dirname}
	vs.installVersion(&Version{})
	vs.nextFileNum.Store(1)
	vs.nextRunID.Store(1)
	if err := vs.rollManifest(); err != nil {
		return nil, err
	}
	return vs, nil
}

// Load recovers the version set from an existing store.
func Load(fs vfs.FS, dirname string) (*VersionSet, error) {
	currentPath := MakeFilename(dirname, FileTypeCurrent, 0)
	f, err := fs.Open(currentPath)
	if err != nil {
		return nil, fmt.Errorf("manifest: opening CURRENT: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		vfs.BestEffortClose(f)
		return nil, err
	}
	nameBytes := make([]byte, size)
	if _, err := f.ReadAt(nameBytes, 0); err != nil && !errors.Is(err, io.EOF) {
		vfs.BestEffortClose(f)
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	manifestName := strings.TrimSpace(string(nameBytes))

	mf, err := fs.Open(filepath.Join(dirname, manifestName))
	if err != nil {
		return nil, fmt.Errorf("manifest: opening %s: %w", manifestName, err)
	}
	rdr, err := wal.NewReader(mf)
	if err != nil {
		vfs.BestEffortClose(mf)
		return nil, err
	}
	vs := &VersionSet{fs: fs, dirname: dirname}
	vs.installVersion(&Version{})
	vs.nextFileNum.Store(1)
	vs.nextRunID.Store(1)
	for {
		rec, err := rdr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			vfs.BestEffortClose(mf)
			// Attach the manifest path to mid-log corruption so the error
			// names the file and byte offset, not just "corrupt record".
			return nil, fmt.Errorf("manifest: replay: %w", wal.Locate(err, filepath.Join(dirname, manifestName)))
		}
		edit, err := DecodeVersionEdit(rec)
		if err != nil {
			vfs.BestEffortClose(mf)
			return nil, err
		}
		if err := vs.applyLocked(edit); err != nil {
			vfs.BestEffortClose(mf)
			return nil, err
		}
	}
	if err := mf.Close(); err != nil {
		return nil, err
	}
	// Remember the manifest we recovered from so rolling below cleans it
	// up once the replacement is durable.
	if t, num, ok := ParseFilename(manifestName); ok && t == FileTypeManifest {
		vs.manifestNum = num
	}
	// Start a fresh manifest holding a snapshot of the recovered state so
	// the log does not grow without bound across restarts.
	if err := vs.rollManifest(); err != nil {
		return nil, err
	}
	return vs, nil
}

// applyLocked applies an edit to the in-memory state without logging it.
// Callers hold commitMu (or are single-threaded, during recovery). Nothing
// has opened a file yet, so what the install reports dead is not unlinked:
// Open sweeps every table no version names.
func (vs *VersionSet) applyLocked(e *VersionEdit) error {
	nv, err := vs.current.Apply(e)
	if err != nil {
		return err
	}
	vs.installVersion(nv)
	vs.noteEditCounters(e)
	return nil
}

// installVersion publishes nv as the current version: it takes the set's
// reference on nv and nv's on each of its files, swaps current, and drops
// the set's reference on the old version. It returns the files that died:
// those the old version held and no version holds now.
func (vs *VersionSet) installVersion(nv *Version) []base.FileNum {
	nv.refs.Store(1)
	nv.AllFiles(func(_ int, f *FileMetadata) { f.refs.Add(1) })
	vs.mu.Lock()
	old := vs.current
	vs.current = nv
	vs.mu.Unlock()
	if old == nil {
		return nil
	}
	return old.Unref()
}

// noteEditCounters merges the edit's stamped counters into the live ones.
// Counters only move forward; during a live run the stamped values can
// never exceed the current ones (they were read from these atomics before
// concurrent allocations advanced them), so the max-merge only has effect
// during recovery replay.
func (vs *VersionSet) noteEditCounters(e *VersionEdit) {
	casMax(&vs.lastSeqNum, uint64(e.LastSeqNum))
	casMax(&vs.nextFileNum, uint64(e.NextFileNum))
	casMax(&vs.logNum, uint64(e.LogNum))
	casMax(&vs.nextRunID, e.NextRunID)
}

// Commit is the version set's one commit point. Under the commit mutex —
// atomically with respect to other committers — it lets a non-nil finish
// complete the edit against the version current then (so a maintenance job
// can resolve commit-time state, such as the output level's run id, without
// holding any engine-wide lock across the manifest fsync), durably records
// the edit, and installs the version it produces. A non-nil install takes
// over the installation: it is invoked once, after the append+fsync, with
// the function that publishes the new version, and calls it under the
// caller's own lock to make the install atomic with a caller-side state
// change (a flush pops its immutable memtable this way). Neither callback may
// block on a lock ordered before the commit mutex.
//
// On success Commit returns the files that died with the install: those the
// replaced version held, that the new one does not, and that no reader's
// version holds either. The caller unlinks them; a file a reader still holds
// is reported by that reader's Unref instead. On an error the edit is not
// installed, and unless the error wraps ErrEditInDoubt no later Load will
// replay it either, so the caller may unlink the files it added.
func (vs *VersionSet) Commit(e *VersionEdit, finish func(cur *Version), install func(publish func())) ([]base.FileNum, error) {
	vs.commitMu.Lock()
	defer vs.commitMu.Unlock()
	if finish != nil {
		finish(vs.Current())
	}
	nv, err := vs.commitLocked(e)
	if err != nil {
		return nil, err
	}
	var dead []base.FileNum
	publish := func() { dead = vs.installVersion(nv) }
	if install != nil {
		install(publish)
	} else {
		publish()
	}
	vs.noteEditCounters(e)
	return dead, nil
}

// LoadRangeTombstones fills FileMetadata.RangeTombstones for the recovered
// files that carry any — the manifest records only their count — and
// rebuilds the current version over them. Open calls it once, before the
// version set is reachable by any reader or committer.
func (vs *VersionSet) LoadRangeTombstones(load func(base.FileNum) ([]base.RangeTombstone, error)) error {
	var err error
	vs.current.AllFiles(func(_ int, f *FileMetadata) {
		if err == nil && f.NumRangeDeletes > 0 {
			f.RangeTombstones, err = load(f.FileNum)
		}
	})
	if err != nil {
		return err
	}
	return vs.applyLocked(&VersionEdit{})
}

// ErrEditInDoubt marks a failed commit whose record may still sit in the
// manifest log (the roll that forgets it failed too): the edit is not
// installed, but a Load after a crash may replay it, so the files it adds
// must stay on disk.
var ErrEditInDoubt = errors.New("manifest: failed edit may still be in the log")

// commitLocked stamps the engine counters into the edit, durably logs it,
// and materializes (without installing) the version it produces. Caller
// holds commitMu.
func (vs *VersionSet) commitLocked(e *VersionEdit) (*Version, error) {
	if vs.writer == nil {
		return nil, errors.New("manifest: version set closed")
	}
	// Stamp counters into the edit so recovery replays them. A flush's
	// edit raises the log number; the set adopts it once the edit is durable.
	e.LastSeqNum = vs.LastSeqNum()
	e.NextFileNum = vs.NextFileNum()
	e.LogNum = max(e.LogNum, vs.LogNum())
	e.NextRunID = vs.NextRunID()
	// Apply first: an edit the version rejects never reaches the log.
	nv, err := vs.current.Apply(e)
	if err != nil {
		return nil, err
	}
	if vs.tailInDoubt {
		// Nothing may be appended behind a failed commit's record.
		if err := vs.rollManifest(); err != nil {
			return nil, err
		}
	}
	// The record append and fsync deliberately stay under the caller's
	// commitMu: the commit point IS durable-log order (log order must equal
	// install order), so releasing the mutex before the sync would let a
	// later version install ahead of an earlier edit's durability. No reader
	// or writer path blocks on commitMu — engine locks are only ever
	// acquired after it (a flush install takes the engine mutex under
	// commitMu), never held while waiting for it — so the hot paths never
	// wait on this I/O.
	err = vs.writer.AddRecord(e.Encode())
	if err == nil {
		// Durable before the version it produces is installed.
		err = vs.writer.Sync()
	}
	if err == nil {
		return nv, nil
	}
	// The record, or a torn piece of it, may be in the log, and a later Close
	// or crash could make it durable. Forget it: roll to a fresh manifest
	// that snapshots the installed version.
	vs.tailInDoubt = true
	if rerr := vs.rollManifest(); rerr != nil {
		return nil, fmt.Errorf("%w: %w (manifest roll: %v)", ErrEditInDoubt, err, rerr)
	}
	return nil, err
}

// snapshotEdit captures the full current state as one edit.
func (vs *VersionSet) snapshotEdit() *VersionEdit {
	e := &VersionEdit{
		LastSeqNum:  vs.LastSeqNum(),
		NextFileNum: vs.NextFileNum(),
		LogNum:      vs.LogNum(),
		NextRunID:   vs.NextRunID(),
	}
	for l := range vs.current.Levels {
		for _, r := range vs.current.Levels[l] {
			for _, f := range r.Files {
				e.Added = append(e.Added, NewFileEntry{Level: l, RunID: r.ID, Meta: f})
			}
		}
	}
	return e
}

// rollManifest starts a new manifest file seeded with a snapshot edit and
// atomically repoints CURRENT at it. On failure the old manifest, if any,
// stays the one in use.
func (vs *VersionSet) rollManifest() error {
	num := vs.AllocFileNum()
	path := MakeFilename(vs.dirname, FileTypeManifest, num)
	f, err := vs.fs.Create(path)
	if err != nil {
		return err
	}
	w := wal.NewWriter(f)
	snap := vs.snapshotEdit()
	snap.NextFileNum = vs.NextFileNum() // includes the manifest's own number
	err = w.AddRecord(snap.Encode())
	if err == nil {
		err = w.Sync()
	}
	if err == nil {
		err = vs.writeCurrent(path)
	}
	if err != nil {
		vfs.BestEffortClose(f)
		_ = vs.fs.Remove(path)
		return err
	}

	if vs.writer != nil {
		// Superseded: CURRENT no longer names it, so a close error loses nothing.
		vfs.BestEffortClose(vs.writer)
	}
	oldNum := vs.manifestNum
	vs.writer, vs.manifestNum, vs.tailInDoubt = w, num, false
	if oldNum != 0 {
		// Best-effort removal of the superseded manifest.
		_ = vs.fs.Remove(MakeFilename(vs.dirname, FileTypeManifest, oldNum))
	}
	return nil
}

// writeCurrent points CURRENT at the manifest, via a temp file + rename for
// atomicity.
func (vs *VersionSet) writeCurrent(manifestPath string) error {
	tmp := filepath.Join(vs.dirname, "CURRENT.tmp")
	cf, err := vs.fs.Create(tmp)
	if err != nil {
		return err
	}
	_, err = cf.Write([]byte(filepath.Base(manifestPath) + "\n"))
	if err == nil {
		err = cf.Sync()
	}
	if err != nil {
		vfs.BestEffortClose(cf)
		return err
	}
	if err := cf.Close(); err != nil {
		return err
	}
	return vs.fs.Rename(tmp, MakeFilename(vs.dirname, FileTypeCurrent, 0))
}

// Close releases the manifest writer, waiting out any in-flight commit.
func (vs *VersionSet) Close() error {
	vs.commitMu.Lock()
	defer vs.commitMu.Unlock()
	if vs.writer == nil {
		return nil
	}
	//lint:ignore lockheld close must exclude in-flight commits: a concurrent AddRecord on a closed writer would lose the edit
	err := vs.writer.Close()
	vs.writer = nil
	return err
}
