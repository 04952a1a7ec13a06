// Package vfs abstracts the filesystem beneath the engine. Production code
// uses OSFS; tests and benchmarks use MemFS, which is deterministic, keeps
// byte-level accounting for amplification measurements, and supports fault
// injection.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNoSpace is the canonical out-of-space error for the engine. Fault
// injectors (internal/vfs/errorfs) wrap it so the background-error state
// machine can classify the failure as permanent with errors.Is.
var ErrNoSpace = errors.New("vfs: no space left on device")

// File is the subset of file behaviour the engine needs.
type File interface {
	io.WriterAt
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync flushes the file's contents to stable storage.
	Sync() error
	// Size returns the current length of the file in bytes.
	Size() (int64, error)
}

// FS is the filesystem interface beneath the engine.
type FS interface {
	// Create creates (or truncates) the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// Remove deletes the named file.
	Remove(name string) error
	// Rename atomically renames oldname to newname.
	Rename(oldname, newname string) error
	// List returns the names (not paths) of files in dir, sorted.
	List(dir string) ([]string, error)
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Exists reports whether the named file exists.
	Exists(name string) bool
}

// BestEffortClose closes c and deliberately drops the error. It names the
// one situation where discarding a close error is sound: the close cannot
// affect correctness, either because the file was only read from or because
// the surrounding path is already returning an earlier error. Durability
// paths must propagate close errors instead; that distinction is kept in
// review.
func BestEffortClose(c io.Closer) {
	_ = c.Close()
}

// ---------------------------------------------------------------------------
// OS filesystem

// OSFS is the real filesystem. The zero value is ready to use.
type OSFS struct{}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open implements FS.
func (OSFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// List implements FS.
func (OSFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Exists implements FS.
func (OSFS) Exists(name string) bool {
	_, err := os.Stat(name)
	return err == nil
}

// ---------------------------------------------------------------------------
// In-memory filesystem

// MemFS is a deterministic in-memory filesystem. It tracks cumulative bytes
// written and synced, which the benchmark harness uses to compute write
// amplification independent of wall-clock effects. MemFS is safe for
// concurrent use: the namespace lock is acquired before any node lock.
//
// acheron:locks order vfs.MemFS.mu < vfs.memNode.mu
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memNode
	dirs  map[string]bool

	// BytesWritten is the cumulative count of bytes handed to Write or
	// WriteAt across all files, including files later removed.
	bytesWritten int64
	syncs        int64
}

type memNode struct {
	mu   sync.RWMutex
	data []byte
	// synced is the length of the durable prefix: bytes before this offset
	// survive a crash (CrashClone); bytes at or after it are lost. Sync
	// advances it to len(data).
	synced int
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memNode), dirs: map[string]bool{"/": true, ".": true, "": true}}
}

// BytesWritten returns the cumulative bytes written across all files.
func (fs *MemFS) BytesWritten() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.bytesWritten
}

// Syncs returns the cumulative number of Sync calls.
func (fs *MemFS) Syncs() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.syncs
}

// DiskUsage returns the total bytes currently stored across live files.
func (fs *MemFS) DiskUsage() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var n int64
	for _, f := range fs.files {
		f.mu.RLock()
		n += int64(len(f.data))
		f.mu.RUnlock()
	}
	return n
}

// CrashClone returns a new MemFS holding, for every file, only the bytes
// that had been synced at the time of the call — simulating a power cut.
// Unsynced suffixes are dropped.
//
// Directory operations (Create, Remove, Rename, MkdirAll) are modeled as
// immediately durable: the engine's files are append-only and its one
// commit-point rename (CURRENT) is preceded by a sync of the temp file, so
// treating metadata as durable only ever makes the clone *more* complete
// than a real power cut, never less — acknowledged-synced data still has to
// survive, which is the property under test. The clone shares no state with
// the original; both remain usable.
func (fs *MemFS) CrashClone() *MemFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	clone := NewMemFS()
	for name, n := range fs.files {
		n.mu.RLock()
		durable := make([]byte, n.synced)
		copy(durable, n.data[:n.synced])
		n.mu.RUnlock()
		clone.files[name] = &memNode{data: durable, synced: len(durable)}
	}
	for dir := range fs.dirs {
		clone.dirs[dir] = true
	}
	return clone
}

func clean(name string) string { return filepath.Clean(name) }

// Create implements FS.
func (fs *MemFS) Create(name string) (File, error) {
	name = clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := &memNode{}
	fs.files[name] = n
	return &memFile{fs: fs, node: n, name: name, writable: true}, nil
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	name = clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.files[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &memFile{fs: fs, node: n, name: name}, nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	name = clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(fs.files, name)
	return nil
}

// Rename implements FS.
func (fs *MemFS) Rename(oldname, newname string) error {
	oldname, newname = clean(oldname), clean(newname)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.files[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	delete(fs.files, oldname)
	fs.files[newname] = n
	return nil
}

// List implements FS.
func (fs *MemFS) List(dir string) ([]string, error) {
	dir = clean(dir)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	prefix := dir + string(filepath.Separator)
	if dir == "." || dir == "" {
		prefix = ""
	}
	var names []string
	for name := range fs.files {
		if strings.HasPrefix(name, prefix) {
			rest := strings.TrimPrefix(name, prefix)
			if !strings.ContainsRune(rest, filepath.Separator) {
				names = append(names, rest)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (fs *MemFS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.dirs[clean(dir)] = true
	return nil
}

// Exists implements FS.
func (fs *MemFS) Exists(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[clean(name)]
	return ok
}

type memFile struct {
	fs       *MemFS
	node     *memNode
	name     string
	writable bool
	off      int64 // sequential write offset
	closed   bool
}

func (f *memFile) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.off)
	f.off += int64(n)
	return n, err
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, fmt.Errorf("vfs: write to closed file %s", f.name)
	}
	if !f.writable {
		return 0, fmt.Errorf("vfs: file %s opened read-only", f.name)
	}
	f.node.mu.Lock()
	if need := off + int64(len(p)); need > int64(len(f.node.data)) {
		if need > int64(cap(f.node.data)) {
			// Amortize growth: append-heavy writers (the WAL) would
			// otherwise copy the whole file on every record.
			newCap := 2 * cap(f.node.data)
			if int64(newCap) < need {
				newCap = int(need)
			}
			if newCap < 4096 {
				newCap = 4096
			}
			grown := make([]byte, need, newCap)
			copy(grown, f.node.data)
			f.node.data = grown
		} else {
			f.node.data = f.node.data[:need]
		}
	}
	copy(f.node.data[off:], p)
	f.node.mu.Unlock()

	f.fs.mu.Lock()
	f.fs.bytesWritten += int64(len(p))
	f.fs.mu.Unlock()
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, fmt.Errorf("vfs: read from closed file %s", f.name)
	}
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	if off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Sync() error {
	if f.closed {
		return fmt.Errorf("vfs: sync of closed file %s", f.name)
	}
	f.node.mu.Lock()
	f.node.synced = len(f.node.data)
	f.node.mu.Unlock()
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.mu.Unlock()
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	return int64(len(f.node.data)), nil
}

func (f *memFile) Close() error {
	f.closed = true
	return nil
}
