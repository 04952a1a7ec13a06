package vfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
)

// fuzzNames are the names FuzzMemFS's ops link, unlink and rename.
var fuzzNames = []string{"a", "b", "dir/c"}

// fuzzLens are the lengths a length byte of 240 or more selects: the edges
// of one page and of two.
var fuzzLens = []int{pageSize - 1, pageSize, pageSize + 1, 2*pageSize - 7, 2*pageSize + 3}

func fuzzLen(b byte) int {
	if b < 240 {
		return int(b)
	}
	return fuzzLens[int(b-240)%len(fuzzLens)]
}

// fuzzOff is an offset near one of the first four page edges: the low two
// bits of hi pick the edge, lo (signed) the distance from it.
func fuzzOff(hi, lo byte) int64 {
	return max(int64(hi%4)*pageSize+int64(int8(lo)), 0)
}

// modelFile is FuzzMemFS's flat model of a file: its bytes and its synced
// prefix.
type modelFile struct {
	data   []byte
	synced int
}

// fuzzHandle is an open handle and the model file it reads.
type fuzzHandle struct {
	f        File
	m        *modelFile
	writable bool
	off      int64
}

// FuzzMemFS decodes a stream of up to 128 ops over three names and checks MemFS
// against a flat []byte model per file. Each op is 5 bytes: the op (low four
// bits; the bits above pick a name or a handle), two offset bytes, a length
// byte and a pattern seed. The ops are 0 Create, 1 Open, 2 Remove, 3 Rename
// onto the next name, 4 WriteAt, 5 Write, 6 ReadAt, 7 Sync, 8 Close and 9
// CrashClone. A write at an offset past the end leaves a gap that must read
// as zeros; a handle open on a removed, replaced or renamed-over file keeps
// reading its own bytes. After every op: each name reads as its model,
// DiskUsage, BytesWritten and Syncs match, no page is held twice (by two
// files, or by a file and the free list), and the pool's live count is the
// pages files hold.
func FuzzMemFS(f *testing.F) {
	op := func(kind, pick, hi, lo, n byte) []byte { return []byte{kind | pick<<4, hi, lo, n, kind + pick} }
	cat := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	f.Add([]byte{})
	// A write across a page edge, read back across it, synced, cloned.
	f.Add(cat(op(0, 0, 1, 0xf0, 100), op(4, 0, 1, 0xf0, 100), op(6, 0, 1, 0xf8, 30), op(7, 0, 0, 0, 0), op(9, 0, 0, 0, 0)))
	// A gap of more than a page, a read through it and past the end.
	f.Add(cat(op(0, 1, 0, 0, 0), op(5, 0, 0, 0, 10), op(4, 0, 2, 5, 20), op(6, 0, 0, 0, 243), op(6, 0, 3, 0, 50)))
	// A reader open on a file that is removed, then pages reused by another.
	f.Add(cat(op(0, 0, 0, 0, 0), op(5, 0, 0, 0, 244), op(1, 0, 0, 0, 0), op(8, 0, 0, 0, 0), op(2, 0, 0, 0, 0),
		op(0, 1, 0, 0, 0), op(5, 1, 0, 0, 244), op(6, 0, 0, 9, 200), op(8, 0, 0, 0, 0), op(0, 2, 0, 0, 0), op(5, 1, 0, 0, 243)))
	// Create and Rename over names with open handles.
	f.Add(cat(op(0, 0, 0, 0, 0), op(5, 0, 0, 0, 241), op(7, 0, 0, 0, 0), op(0, 1, 0, 0, 0), op(5, 1, 0, 0, 90),
		op(3, 0, 0, 0, 0), op(0, 1, 0, 0, 0), op(6, 0, 0, 7, 90), op(6, 1, 0, 0, 9), op(9, 0, 0, 0, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := NewMemFS()
		model := map[string]*modelFile{}
		var handles []*fuzzHandle
		var written, syncs int64
		budget := 64 * pageSize // bytes written per input
		pick := func(b byte) *fuzzHandle {
			if len(handles) == 0 {
				return nil
			}
			return handles[int(b)%len(handles)]
		}
		for ops := 0; len(data) >= 5 && ops < 128; data, ops = data[5:], ops+1 {
			kind, sel := data[0]&0xf, data[0]>>4
			name := fuzzNames[int(sel)%len(fuzzNames)]
			off, n := fuzzOff(data[1], data[2]), fuzzLen(data[3])
			switch kind {
			case 0:
				f, err := fs.Create(name)
				if err != nil {
					t.Fatalf("Create(%s): %v", name, err)
				}
				m := &modelFile{}
				model[name] = m
				handles = append(handles, &fuzzHandle{f: f, m: m, writable: true})
			case 1:
				f, err := fs.Open(name)
				m, ok := model[name]
				if ok != (err == nil) {
					t.Fatalf("Open(%s): %v, model has it: %v", name, err, ok)
				}
				if ok {
					handles = append(handles, &fuzzHandle{f: f, m: m})
				}
			case 2:
				err := fs.Remove(name)
				if _, ok := model[name]; ok != (err == nil) {
					t.Fatalf("Remove(%s): %v, model has it: %v", name, err, ok)
				}
				delete(model, name)
			case 3:
				to := fuzzNames[(int(sel)+1)%len(fuzzNames)]
				err := fs.Rename(name, to)
				m, ok := model[name]
				if ok != (err == nil) {
					t.Fatalf("Rename(%s, %s): %v, model has it: %v", name, to, err, ok)
				}
				if ok {
					delete(model, name)
					model[to] = m
				}
			case 4, 5:
				h := pick(sel)
				if h == nil || !h.writable {
					continue
				}
				if budget -= n; budget < 0 {
					return
				}
				p := fuzzPattern(n, data[4])
				var err error
				if kind == 5 {
					off = h.off
					_, err = h.f.Write(p)
				} else {
					_, err = h.f.WriteAt(p, off)
				}
				if err != nil {
					t.Fatalf("write %d bytes at %d: %v", n, off, err)
				}
				if end := int(off) + n; end > len(h.m.data) {
					h.m.data = append(h.m.data, make([]byte, end-len(h.m.data))...)
				}
				copy(h.m.data[off:], p)
				if kind == 5 {
					h.off += int64(n)
				}
				written += int64(n)
			case 6:
				if h := pick(sel); h != nil {
					checkRead(t, h.f, h.m.data, off, n)
				}
			case 7:
				h := pick(sel)
				if h == nil {
					continue
				}
				if err := h.f.Sync(); err != nil {
					t.Fatal(err)
				}
				h.m.synced = len(h.m.data)
				syncs++
			case 8:
				if len(handles) == 0 {
					continue
				}
				i := int(sel) % len(handles)
				if err := handles[i].f.Close(); err != nil {
					t.Fatal(err)
				}
				handles = append(handles[:i], handles[i+1:]...)
			case 9:
				clone := fs.CrashClone()
				durable := map[string]*modelFile{}
				for name, m := range model {
					durable[name] = &modelFile{data: m.data[:m.synced], synced: m.synced}
				}
				checkNames(t, clone, durable)
				checkPages(t, clone, nil)
			}
			checkNames(t, fs, model)
			checkPages(t, fs, handles)
			if fs.BytesWritten() != written || fs.Syncs() != syncs {
				t.Fatalf("BytesWritten %d, Syncs %d; want %d, %d", fs.BytesWritten(), fs.Syncs(), written, syncs)
			}
		}
		for _, h := range handles {
			if err := h.f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		checkPages(t, fs, nil)
	})
}

// fuzzPattern is n bytes that start from seed and never repeat a zero run,
// so a gap read as the pattern, or the pattern read as a gap, shows.
func fuzzPattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i)*7 | 1
	}
	return p
}

// checkRead reads n bytes at off through f and compares them, the count
// and io.EOF with what the model's bytes give.
func checkRead(t *testing.T, f File, data []byte, off int64, n int) {
	t.Helper()
	buf := make([]byte, n)
	got, err := f.ReadAt(buf, off)
	want := int(min(int64(n), max(int64(len(data))-off, 0)))
	eof := want < n || off >= int64(len(data)) // even an empty read at the end
	if got != want || eof != errors.Is(err, io.EOF) || (err != nil && !errors.Is(err, io.EOF)) {
		t.Fatalf("ReadAt(%d bytes at %d) of %d-byte file = %d, %v; want %d", n, off, len(data), got, err, want)
	}
	if got > 0 && !bytes.Equal(buf[:got], data[off:off+int64(got)]) {
		t.Fatalf("ReadAt(%d bytes at %d) of %d-byte file read other bytes than were written", n, off, len(data))
	}
}

// checkNames checks that fs links exactly model's names and each reads as
// its model file, and that DiskUsage is their total size.
func checkNames(t *testing.T, fs *MemFS, model map[string]*modelFile) {
	t.Helper()
	var usage int64
	for _, name := range fuzzNames {
		m, ok := model[name]
		if fs.Exists(name) != ok {
			t.Fatalf("Exists(%s) = %v, model has it: %v", name, !ok, ok)
		}
		if !ok {
			continue
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if size, _ := f.Size(); size != int64(len(m.data)) {
			t.Fatalf("%s: Size = %d, want %d", name, size, len(m.data))
		}
		checkRead(t, f, m.data, 0, len(m.data)+1)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		usage += int64(len(m.data))
	}
	if _, err := fs.Open("missing"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open(missing): %v", err)
	}
	if got := fs.DiskUsage(); got != usage {
		t.Fatalf("DiskUsage = %d, want %d", got, usage)
	}
}

// checkPages checks that no page is held twice, by two files or by a file
// and the free list, and that the pool's live count is the pages held by
// linked files and the files open handles keep.
func checkPages(t *testing.T, fs *MemFS, handles []*fuzzHandle) {
	t.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nodes := map[*memNode]bool{}
	for _, n := range fs.files {
		nodes[n] = true
	}
	for _, h := range handles {
		nodes[h.f.(*memFile).node] = true
	}
	seen := map[*page]bool{}
	live := 0
	for n := range nodes {
		n.mu.RLock()
		for _, pg := range n.pages {
			if seen[pg] {
				t.Fatal("a page is held by two files")
			}
			seen[pg] = true
		}
		live += len(n.pages)
		n.mu.RUnlock()
	}
	fs.pages.mu.Lock()
	defer fs.pages.mu.Unlock()
	for _, pg := range fs.pages.free {
		if seen[pg] {
			t.Fatal("a page a file holds is on the free list")
		}
		seen[pg] = true
	}
	if fs.pages.live != live {
		t.Fatalf("pool counts %d live pages, files hold %d", fs.pages.live, live)
	}
}
