// Package vfs abstracts the filesystem beneath the engine. Production code
// uses OSFS; tests and benchmarks use MemFS, which is deterministic, keeps
// byte-level accounting for amplification measurements, supports fault
// injection, and holds files in fixed-size pages it recycles, so that what
// a benchmark allocates is the engine's, not the device model's.
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
	"sync/atomic"
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
// amplification independent of wall-clock effects.
//
// A file's bytes live in fixed-size pages (pageSize) drawn from the MemFS's
// free list: a file grows a page at a time and never copies what it holds.
// A file's node is reference counted, one reference while a name links it
// and one per open handle; its pages go back to the free list when the last
// reference drops, so a handle still open on a removed or replaced file keeps
// reading its own bytes. A handle never closed leaves its pages to the
// garbage collector.
//
// MemFS is safe for concurrent use: the namespace lock is acquired before
// any node lock, and the free list's lock last. Writes and syncs take only
// their node's lock.
//
// acheron:locks order vfs.MemFS.mu < vfs.memNode.mu < vfs.pagePool.mu
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memNode
	dirs  map[string]bool
	pages pagePool

	// bytesWritten is the cumulative count of bytes handed to Write or
	// WriteAt across all files, including files later removed.
	bytesWritten atomic.Int64
	syncs        atomic.Int64
}

// pageSize is the unit in which a MemFS file grows. A file wastes up to a
// page in its last one, so it is no larger than the smallest tables the
// tests write: 64 KiB pages tripled the core tests' peak RSS.
const pageSize = 16 << 10

type page [pageSize]byte

// pagePool is a MemFS's free list of pages. Spare pages yield to live ones:
// after a file's pages come back, the list keeps no more than the pages files
// still hold, or than that one file held, whichever is more (so a lone file
// that is removed and written again reuses its own pages).
type pagePool struct {
	mu   sync.Mutex
	free []*page
	live int // pages held by files
}

// get returns a page for a growing file. A recycled page is not zeroed.
func (p *pagePool) get() *page {
	p.mu.Lock()
	p.live++
	if n := len(p.free); n > 0 {
		pg := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return pg
	}
	p.mu.Unlock()
	return new(page)
}

// put takes back the pages of a file nothing references any more. Under the
// race detector each is poisoned first, so a read that outlives its file
// reads garbage at once.
func (p *pagePool) put(pages []*page) {
	if len(pages) == 0 {
		return
	}
	if poison {
		for _, pg := range pages {
			pg[0] = 0xdb
			for i := 1; i < pageSize; i *= 2 {
				copy(pg[i:], pg[:i])
			}
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live -= len(pages)
	p.free = append(p.free, pages...)
	if keep := max(p.live, len(pages)); len(p.free) > keep {
		clear(p.free[keep:])
		p.free = p.free[:keep]
	}
}

type memNode struct {
	mu    sync.RWMutex
	pages []*page
	size  int64
	// synced is the length of the durable prefix: bytes before this offset
	// survive a crash (CrashClone); bytes at or after it are lost. Sync
	// advances it to size.
	synced int64
	// refs counts the name linking the node and its open handles. Guarded
	// by MemFS.mu.
	refs int
}

// writeNode copies p into n at off, taking pages from pool as n grows. A gap
// between the old end and off reads as zeros. n.mu is held. (The node
// helpers are functions, not methods: the lockheld analyzer counts every
// vfs method as I/O.)
func writeNode(n *memNode, pool *pagePool, p []byte, off int64) {
	end := off + int64(len(p))
	for int64(len(n.pages))*pageSize < end {
		n.pages = append(n.pages, pool.get())
	}
	for gap := n.size; gap < off; {
		pg := n.pages[gap/pageSize][gap%pageSize:]
		c := min(int64(len(pg)), off-gap)
		clear(pg[:c])
		gap += c
	}
	for len(p) > 0 {
		c := copy(n.pages[off/pageSize][off%pageSize:], p)
		p, off = p[c:], off+int64(c)
	}
	n.size = max(n.size, end)
}

// readNode copies n's bytes at off into p, which must not reach past n's
// size. n.mu is held.
func readNode(n *memNode, p []byte, off int64) {
	for len(p) > 0 {
		c := copy(p, n.pages[off/pageSize][off%pageSize:])
		p, off = p[c:], off+int64(c)
	}
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memNode), dirs: map[string]bool{"/": true, ".": true, "": true}}
}

// BytesWritten returns the cumulative bytes written across all files.
func (fs *MemFS) BytesWritten() int64 { return fs.bytesWritten.Load() }

// Syncs returns the cumulative number of Sync calls.
func (fs *MemFS) Syncs() int64 { return fs.syncs.Load() }

// DiskUsage returns the total bytes currently stored across live files:
// their sizes, not the pages that hold them.
func (fs *MemFS) DiskUsage() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var n int64
	for _, f := range fs.files {
		f.mu.RLock()
		n += f.size
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
		c := &memNode{refs: 1}
		n.mu.RLock()
		for off := int64(0); off < n.synced; off += pageSize {
			pg := n.pages[off/pageSize]
			writeNode(c, &clone.pages, pg[:min(pageSize, n.synced-off)], off)
		}
		n.mu.RUnlock()
		c.synced = c.size
		clone.files[name] = c
	}
	for dir := range fs.dirs {
		clone.dirs[dir] = true
	}
	return clone
}

// unref drops a reference to n; the last one gives its pages back to fs's
// free list. fs.mu is held.
func unref(fs *MemFS, n *memNode) {
	if n.refs--; n.refs > 0 {
		return
	}
	n.mu.Lock()
	pages := n.pages
	n.pages, n.size, n.synced = nil, 0, 0
	n.mu.Unlock()
	fs.pages.put(pages)
}

func clean(name string) string { return filepath.Clean(name) }

// Create implements FS. A file the name linked before is unlinked, as by
// Remove.
func (fs *MemFS) Create(name string) (File, error) {
	name = clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if old, ok := fs.files[name]; ok {
		unref(fs, old)
	}
	n := &memNode{refs: 2}
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
	n.refs++
	return &memFile{fs: fs, node: n, name: name}, nil
}

// Remove implements FS. Handles open on the file keep reading it until they
// close.
func (fs *MemFS) Remove(name string) error {
	name = clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.files[name]
	if !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(fs.files, name)
	unref(fs, n)
	return nil
}

// Rename implements FS. A file newname linked before is unlinked, as by
// Remove.
func (fs *MemFS) Rename(oldname, newname string) error {
	oldname, newname = clean(oldname), clean(newname)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.files[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	if oldname == newname {
		return nil
	}
	if old, ok := fs.files[newname]; ok {
		unref(fs, old)
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
	writeNode(f.node, &f.fs.pages, p, off)
	f.node.mu.Unlock()
	f.fs.bytesWritten.Add(int64(len(p)))
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, fmt.Errorf("vfs: read from closed file %s", f.name)
	}
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	if off >= f.node.size {
		return 0, io.EOF
	}
	n := int(min(int64(len(p)), f.node.size-off))
	readNode(f.node, p[:n], off)
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
	f.node.synced = f.node.size
	f.node.mu.Unlock()
	f.fs.syncs.Add(1)
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	return f.node.size, nil
}

// Close drops the handle's reference to its file; closing twice is harmless.
func (f *memFile) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	f.fs.mu.Lock()
	unref(f.fs, f.node)
	f.fs.mu.Unlock()
	return nil
}
