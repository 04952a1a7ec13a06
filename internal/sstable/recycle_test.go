package sstable

import (
	"bytes"
	"testing"

	"repro/internal/base"
	"repro/internal/cache"
	"repro/internal/vfs"
)

// fileBytes returns the whole of a MemFS file.
func fileBytes(t *testing.T, fs *vfs.MemFS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAddCopiesKeyAndValue is the writer's contract with its two callers: a
// flush hands Add slices of the memtable arena, a compaction slices of a page
// its iterator releases on leaving the tile. The caller here scribbles over both buffers as
// soon as Add returns; the finished table must read back the original entries.
func TestAddCopiesKeyAndValue(t *testing.T) {
	for _, h := range []int{1, 4} {
		entries := sortedEntries(3000, true)
		fs := vfs.NewMemFS()
		f, err := fs.Create("t.sst")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(f, WriterOptions{BlockSize: 512, PagesPerTile: h, BloomBitsPerKey: 10, DeleteKeyFunc: dkExtract})
		var keyBuf, valBuf []byte
		for _, e := range entries {
			keyBuf = append(keyBuf[:0], e.key.UserKey...)
			valBuf = append(valBuf[:0], e.value...)
			if err := w.Add(base.InternalKey{UserKey: keyBuf, Trailer: e.key.Trailer}, valBuf); err != nil {
				t.Fatal(err)
			}
			for i := range keyBuf {
				keyBuf[i] = 0xff
			}
			for i := range valBuf {
				valBuf[i] = 0xee
			}
		}
		meta, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		first, last := entries[0].key, entries[len(entries)-1].key
		if meta.Smallest.Compare(first) != 0 || meta.Largest.Compare(last) != 0 {
			t.Fatalf("h=%d: bounds %s..%s, want %s..%s", h, meta.Smallest, meta.Largest, first, last)
		}
		rf, err := fs.Open("t.sst")
		if err != nil {
			t.Fatal(err)
		}
		r, err := Open(rf)
		if err != nil {
			t.Fatal(err)
		}
		it := r.NewIter()
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			if it.Key().Compare(entries[n].key) != 0 || !bytes.Equal(it.Value(), entries[n].value) {
				t.Fatalf("h=%d: entry %d reads back %s, want %s", h, n, it.Key(), entries[n].key)
			}
			if !r.MayContain(entries[n].key.UserKey) {
				t.Fatalf("h=%d: filter misses %s", h, entries[n].key)
			}
			n++
		}
		if err := it.Error(); err != nil || n != len(entries) {
			t.Fatalf("h=%d: read %d of %d entries, err %v", h, n, len(entries), err)
		}
		r.Close()
	}
}

// TestWriterResetMatchesFreshWriter: a writer re-targeted with Reset writes
// the bytes a fresh writer would, whatever the table before it held (range
// tombstones, a half-filled tile), and the metadata it returned for that
// earlier table is not disturbed.
func TestWriterResetMatchesFreshWriter(t *testing.T) {
	for _, h := range []int{1, 4} {
		opts := WriterOptions{BlockSize: 512, PagesPerTile: h, BloomBitsPerKey: 10, DeleteKeyFunc: dkExtract}
		all := sortedEntries(2000, true)
		rts := []base.RangeTombstone{{Lo: 5, Hi: 9, Seq: 7, CreatedAt: 3}}
		fs := vfs.NewMemFS()
		write := func(w *Writer, entries []entry, rts []base.RangeTombstone) WriterMeta {
			for _, e := range entries {
				if err := w.Add(e.key, e.value); err != nil {
					t.Fatal(err)
				}
			}
			for _, rt := range rts {
				if err := w.AddRangeTombstone(rt); err != nil {
					t.Fatal(err)
				}
			}
			meta, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			return meta
		}
		create := func(name string) vfs.File {
			f, err := fs.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		w := NewWriter(create("a1"), opts)
		metaA := write(w, all[:1203], rts)
		w.Reset(create("b1"))
		metaB := write(w, all[1203:], nil)
		write(NewWriter(create("a2"), opts), all[:1203], rts)
		freshB := write(NewWriter(create("b2"), opts), all[1203:], nil)

		if !bytes.Equal(fileBytes(t, fs, "a1"), fileBytes(t, fs, "a2")) || !bytes.Equal(fileBytes(t, fs, "b1"), fileBytes(t, fs, "b2")) {
			t.Fatalf("h=%d: a re-targeted writer and a fresh one wrote different bytes", h)
		}
		if metaB.Props != freshB.Props || metaB.Smallest.Compare(freshB.Smallest) != 0 || metaB.Largest.Compare(freshB.Largest) != 0 ||
			metaB.Size != freshB.Size || len(metaB.RangeTombstones) != 0 {
			t.Fatalf("h=%d: re-targeted writer's metadata %+v, fresh writer's %+v", h, metaB, freshB)
		}
		if metaA.Smallest.Compare(all[0].key) != 0 || metaA.Largest.Compare(all[1202].key) != 0 ||
			len(metaA.RangeTombstones) != 1 || metaA.RangeTombstones[0] != rts[0] {
			t.Fatalf("h=%d: first table's metadata changed under Reset: %+v", h, metaA)
		}
	}
}

// TestCompactionIterRecyclesOnlyItsOwnBuffers: a compaction iterator returns
// the same stream as a read iterator with no cache, a cache of a few blocks
// and a cache already holding every block; it inserts nothing, evicts
// nothing, pins nothing once it runs out, and the cached blocks it iterated
// in place are bit-for-bit what they were.
func TestCompactionIterRecyclesOnlyItsOwnBuffers(t *testing.T) {
	for _, h := range []int{1, 4} {
		entries := sortedEntries(4000, true)
		opts := WriterOptions{BlockSize: 512, PagesPerTile: h, DeleteKeyFunc: dkExtract}
		r, _ := buildTable(t, vfs.NewMemFS(), "t.sst", opts, entries, nil)

		check := func(name string, c *cache.Cache) {
			t.Helper()
			it := r.NewCompactionIter(nil)
			n := 0
			for ok := it.First(); ok; ok = it.Next() {
				if it.Key().Compare(entries[n].key) != 0 || !bytes.Equal(it.Value(), entries[n].value) {
					t.Fatalf("h=%d %s: entry %d is %s, want %s", h, name, n, it.Key(), entries[n].key)
				}
				n++
			}
			if err := it.Error(); err != nil || n != len(entries) {
				t.Fatalf("h=%d %s: read %d of %d entries, err %v", h, name, n, len(entries), err)
			}
			if len(it.pages) != 0 || it.BytesLoaded() == 0 {
				t.Fatalf("h=%d %s: iterator pins %d pages after reading %d (%d bytes)", h, name, len(it.pages), r.NumPages(), it.BytesLoaded())
			}
			if c != nil && c.Evictions() != 0 {
				t.Fatalf("h=%d %s: compaction reads evicted %d blocks", h, name, c.Evictions())
			}
		}
		check("no cache", nil)

		one := cache.New(16 * 700) // a few blocks at most
		r.SetCache(one, 1)
		check("small cache", one)
		if one.Bytes() != 0 {
			t.Fatalf("h=%d: compaction reads inserted %d bytes into the cache", h, one.Bytes())
		}

		full := cache.New(64 << 20)
		r.SetCache(full, 1)
		rit := r.NewIter() // the read path fills the cache
		for ok := rit.First(); ok; ok = rit.Next() {
		}
		resident := full.Bytes()
		snapshot := map[uint64][]byte{}
		for _, e := range r.entries {
			b, ok := full.Get(1, e.handle.Offset)
			if !ok {
				t.Fatalf("h=%d: read path left block %d uncached", h, e.handle.Offset)
			}
			snapshot[e.handle.Offset] = bytes.Clone(b.Data())
			b.Release()
		}
		misses := full.Misses()
		check("full cache", full)
		check("full cache, again", full)
		if full.Bytes() != resident || full.Misses() != misses {
			t.Fatalf("h=%d: cache moved under compaction reads: %d -> %d bytes, %d -> %d misses", h, resident, full.Bytes(), misses, full.Misses())
		}
		for off, want := range snapshot {
			got, _ := full.Get(1, off)
			if !bytes.Equal(got.Data(), want) {
				t.Fatalf("h=%d: cached block at %d was written into", h, off)
			}
			got.Release()
		}
		r.SetCache(nil, 0)
	}
}
