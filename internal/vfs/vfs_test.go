package vfs

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

func TestMemFSCreateWriteRead(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("dir/file.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := fs.Open("dir/file.txt")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 11)
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "hello world" {
		t.Fatalf("read %q", buf)
	}
	size, err := r.Size()
	if err != nil || size != 11 {
		t.Fatalf("Size = %d, %v", size, err)
	}
}

func TestMemFSWriteAt(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("f")
	if _, err := f.WriteAt([]byte("abc"), 5); err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	if size != 8 {
		t.Fatalf("sparse write size = %d, want 8", size)
	}
	buf := make([]byte, 8)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf[5:]) != "abc" {
		t.Fatalf("got %q", buf)
	}
}

func TestMemFSReadPastEOF(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("f")
	f.Write([]byte("12345"))
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 3)
	if n != 2 || err != io.EOF {
		t.Fatalf("short read: n=%d err=%v", n, err)
	}
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Fatalf("read past end: %v", err)
	}
}

func TestMemFSOpenMissing(t *testing.T) {
	fs := NewMemFS()
	if _, err := fs.Open("nope"); err == nil {
		t.Fatal("expected error opening missing file")
	}
	if err := fs.Remove("nope"); err == nil {
		t.Fatal("expected error removing missing file")
	}
	if err := fs.Rename("nope", "x"); err == nil {
		t.Fatal("expected error renaming missing file")
	}
}

func TestMemFSRename(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("a")
	f.Write([]byte("data"))
	f.Close()
	if err := fs.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("a") || !fs.Exists("b") {
		t.Fatal("rename did not move the file")
	}
	r, err := fs.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	r.ReadAt(buf, 0)
	if string(buf) != "data" {
		t.Fatalf("content lost in rename: %q", buf)
	}
}

func TestMemFSList(t *testing.T) {
	fs := NewMemFS()
	for _, name := range []string{"d/b", "d/a", "d/sub/c", "top"} {
		f, _ := fs.Create(name)
		f.Close()
	}
	names, err := fs.List("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("List(d) = %v", names)
	}
	root, err := fs.List(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(root) != 1 || root[0] != "top" {
		t.Fatalf("List(.) = %v", root)
	}
}

func TestMemFSAccounting(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("f")
	f.Write(make([]byte, 100))
	f.Write(make([]byte, 50))
	if got := fs.BytesWritten(); got != 150 {
		t.Fatalf("BytesWritten = %d", got)
	}
	if got := fs.DiskUsage(); got != 150 {
		t.Fatalf("DiskUsage = %d", got)
	}
	// Overwrite in place should not grow disk usage.
	f.WriteAt(make([]byte, 50), 0)
	if got := fs.DiskUsage(); got != 150 {
		t.Fatalf("DiskUsage after overwrite = %d", got)
	}
	if got := fs.BytesWritten(); got != 200 {
		t.Fatalf("BytesWritten after overwrite = %d", got)
	}
	fs.Remove("f")
	if got := fs.DiskUsage(); got != 0 {
		t.Fatalf("DiskUsage after remove = %d", got)
	}
	if got := fs.BytesWritten(); got != 200 {
		t.Fatal("BytesWritten should be cumulative across removals")
	}
}

func TestMemFSSyncAccounting(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("f")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if fs.Syncs() != 1 {
		t.Fatalf("Syncs = %d", fs.Syncs())
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if fs.Syncs() != 2 {
		t.Fatalf("Syncs = %d", fs.Syncs())
	}
}

func TestMemFSCrashClone(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("a")
	f.Write([]byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte(" lost"))

	g, _ := fs.Create("b")
	g.Write([]byte("never synced"))

	clone := fs.CrashClone()

	// File a keeps only its synced prefix.
	cf, err := clone.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	size, _ := cf.Size()
	buf := make([]byte, size)
	cf.ReadAt(buf, 0)
	if string(buf) != "durable" {
		t.Fatalf("clone a = %q, want %q", buf, "durable")
	}
	// File b exists but is empty: created, never synced.
	bf, err := clone.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := bf.Size(); n != 0 {
		t.Fatalf("clone b size = %d, want 0", n)
	}
	// The clone is independent: writing to the original does not leak in.
	f.Write([]byte(" more"))
	f.Sync()
	if n, _ := cf.Size(); n != 7 {
		t.Fatalf("clone a size changed to %d", n)
	}
	// A subsequent sync in the original is captured by a later clone.
	clone2 := fs.CrashClone()
	c2, _ := clone2.Open("a")
	if n, _ := c2.Size(); n != int64(len("durable lost more")) {
		t.Fatalf("clone2 a size = %d", n)
	}
}

func TestMemFSCrashCloneRename(t *testing.T) {
	// Rename is modeled durable: the renamed name holds the synced prefix.
	fs := NewMemFS()
	f, _ := fs.Create("tmp")
	f.Write([]byte("payload"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("tmp", "CURRENT"); err != nil {
		t.Fatal(err)
	}
	clone := fs.CrashClone()
	if clone.Exists("tmp") {
		t.Fatal("old name survived the crash clone")
	}
	cf, err := clone.Open("CURRENT")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := cf.Size(); n != 7 {
		t.Fatalf("renamed file size = %d, want 7", n)
	}
}

func TestMemFSClosedFile(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("f")
	f.Close()
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write to closed file should fail")
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("read from closed file should fail")
	}
}

func TestMemFSReadOnlyOpen(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("f")
	f.Write([]byte("x"))
	f.Close()
	r, _ := fs.Open("f")
	if _, err := r.Write([]byte("y")); err == nil {
		t.Fatal("write through read-only handle should fail")
	}
}

func TestMemFSConcurrent(t *testing.T) {
	fs := NewMemFS()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			f, err := fs.Create(name)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 100; j++ {
				f.Write([]byte("data"))
			}
			f.Sync()
			f.Close()
		}(i)
	}
	wg.Wait()
	if got := fs.BytesWritten(); got != 8*100*4 {
		t.Fatalf("BytesWritten = %d", got)
	}
}

func TestOSFSRoundtrip(t *testing.T) {
	dir := t.TempDir()
	fs := OSFS{}
	if err := fs.MkdirAll(dir + "/sub"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(dir + "/sub/x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists(dir + "/sub/x") {
		t.Fatal("file should exist")
	}
	names, err := fs.List(dir + "/sub")
	if err != nil || len(names) != 1 || names[0] != "x" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if err := fs.Rename(dir+"/sub/x", dir+"/sub/y"); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open(dir + "/sub/y")
	if err != nil {
		t.Fatal(err)
	}
	size, _ := r.Size()
	if size != 5 {
		t.Fatalf("size = %d", size)
	}
	r.Close()
	if err := fs.Remove(dir + "/sub/y"); err != nil {
		t.Fatal(err)
	}
}

// memFSFile returns a MemFS file of size bytes.
func memFSFile(tb testing.TB, size int) File {
	fs := NewMemFS()
	f, err := fs.Create("f")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := f.Write(make([]byte, size)); err != nil {
		tb.Fatal(err)
	}
	return f
}

// TestMemFSReadAtAllocs: a ReadAt, the I/O under every block-cache miss,
// allocates nothing.
func TestMemFSReadAtAllocs(t *testing.T) {
	f := memFSFile(t, 1<<20)
	page := make([]byte, 4096)
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		if _, err := f.ReadAt(page, int64(i*7919%256)*4096); err != nil {
			t.Fatal(err)
		}
		i++
	}); a != 0 {
		t.Errorf("ReadAt allocates %.2f times", a)
	}
}

// TestMemFSRemovedFileStaysReadable: a handle open on a file keeps reading
// the file's bytes after it is removed, replaced by Create or renamed over,
// while other files take recycled pages; its pages recycle at its Close.
func TestMemFSRemovedFileStaysReadable(t *testing.T) {
	fs := NewMemFS()
	want := fuzzPattern(3*pageSize+5, 1)
	unlinks := map[string]func() error{
		"remove": func() error { return fs.Remove("old") },
		"create": func() error { _, err := fs.Create("old"); return err },
		"rename": func() error {
			f, err := fs.Create("other")
			if err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			return fs.Rename("other", "old")
		},
	}
	for name, unlink := range unlinks {
		w, _ := fs.Create("old")
		if _, err := w.Write(want); err != nil {
			t.Fatal(err)
		}
		r, err := fs.Open("old")
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := unlink(); err != nil {
			t.Fatal(err)
		}
		// Take every spare page, and more, with another file's bytes.
		g, _ := fs.Create("new")
		if _, err := g.Write(fuzzPattern(8*pageSize, 2)); err != nil {
			t.Fatal(err)
		}
		checkRead(t, r, want, 0, len(want))
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if n := len(fs.pages.free); n != 4 {
			t.Fatalf("%s: %d spare pages after the last handle closed, want the file's 4", name, n)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		fs.Remove("new")
		fs.Remove("old")
	}
}

// TestMemFSPoisonsFreedPages: under the race detector a page is overwritten
// with 0xdb as it reaches the free list.
func TestMemFSPoisonsFreedPages(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("f")
	f.Write(bytes.Repeat([]byte{7}, pageSize+1))
	f.Close()
	fs.Remove("f")
	if len(fs.pages.free) != 2 {
		t.Fatalf("%d spare pages, want 2", len(fs.pages.free))
	}
	for _, pg := range fs.pages.free {
		if poison && bytes.Count(pg[:], []byte{0xdb}) != pageSize {
			t.Fatal("the race build did not poison a freed page")
		}
		if !poison && pg[0] != 7 {
			t.Fatal("a freed page was overwritten outside the race build")
		}
	}
}

// TestMemFSAppendAllocs: once the free list holds pages, appending to a
// file allocates nothing but, rarely, a longer list of its pages.
func TestMemFSAppendAllocs(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("f")
	f.Write(make([]byte, 1<<20))
	f.Close()
	fs.Remove("f")
	f, _ = fs.Create("f")
	rec := make([]byte, 4096)
	if a := testing.AllocsPerRun(200, func() {
		if _, err := f.Write(rec); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("a warm 4 KiB append allocates %.2f times", a)
	}
}

// BenchmarkMemFS prices the two MemFS operations the engine's data paths
// make: appending 4 KiB to a file (files roll at 16 MiB, so the average
// includes the file's creation and its removal, whose pages the next file
// takes) and reading a 4 KiB block at a scattered offset of a 16 MiB file.
func BenchmarkMemFS(b *testing.B) {
	const page, fileBytes = 4096, 16 << 20
	buf := make([]byte, page)
	b.Run("append-4KiB", func(b *testing.B) {
		fs := NewMemFS()
		var f File
		b.ReportAllocs()
		b.SetBytes(page)
		for i := 0; i < b.N; i++ {
			if i%(fileBytes/page) == 0 {
				if f != nil {
					f.Close()
					if err := fs.Remove("f"); err != nil {
						b.Fatal(err)
					}
				}
				var err error
				if f, err = fs.Create("f"); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := f.Write(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("readat-4KiB", func(b *testing.B) {
		f := memFSFile(b, fileBytes)
		b.ReportAllocs()
		b.SetBytes(page)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.ReadAt(buf, int64(i*7919%(fileBytes/page))*page); err != nil {
				b.Fatal(err)
			}
		}
	})
}
