package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/base"
	"repro/internal/cache"
	"repro/internal/vfs"
)

// entry is a test-side record.
type entry struct {
	key   base.InternalKey
	value []byte
}

func dkExtract(v []byte) base.DeleteKey {
	if len(v) < 8 {
		return 0
	}
	var dk base.DeleteKey
	for i := 0; i < 8; i++ {
		dk = dk<<8 | base.DeleteKey(v[i])
	}
	return dk
}

func mkValue(dk uint64, pad int) []byte {
	v := make([]byte, 8+pad)
	for i := 0; i < 8; i++ {
		v[i] = byte(dk >> (56 - 8*i))
	}
	return v
}

// buildTable writes entries (must be pre-sorted) and reopens the file.
func buildTable(t *testing.T, fs *vfs.MemFS, name string, opts WriterOptions, entries []entry, rts []base.RangeTombstone) (*Reader, WriterMeta) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, opts)
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
	rf, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(rf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, meta
}

func sortedEntries(n int, kinds bool) []entry {
	out := make([]entry, 0, n)
	for i := 0; i < n; i++ {
		kind := base.KindSet
		var v []byte
		if kinds && i%7 == 3 {
			kind = base.KindDelete
			v = base.EncodeTombstoneValue(base.Timestamp(1000 + i))
		} else {
			v = mkValue(uint64(i*13%n), 24)
		}
		out = append(out, entry{
			key:   base.MakeInternalKey([]byte(fmt.Sprintf("key%08d", i)), base.SeqNum(n-i), kind),
			value: v,
		})
	}
	return out
}

func TestRoundtripStandard(t *testing.T) {
	fs := vfs.NewMemFS()
	entries := sortedEntries(2000, true)
	r, meta := buildTable(t, fs, "t.sst", WriterOptions{BloomBitsPerKey: 10, DeleteKeyFunc: dkExtract}, entries, nil)

	if meta.Props.NumEntries != 2000 {
		t.Fatalf("NumEntries = %d", meta.Props.NumEntries)
	}
	it := r.NewIter()
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		if it.Key().Compare(entries[i].key) != 0 {
			t.Fatalf("entry %d: got %s want %s", i, it.Key(), entries[i].key)
		}
		if string(it.Value()) != string(entries[i].value) {
			t.Fatalf("entry %d: value mismatch", i)
		}
		i++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if i != len(entries) {
		t.Fatalf("iterated %d of %d", i, len(entries))
	}
}

func TestRoundtripKiWi(t *testing.T) {
	fs := vfs.NewMemFS()
	entries := sortedEntries(3000, false)
	r, meta := buildTable(t, fs, "t.sst",
		WriterOptions{BloomBitsPerKey: 10, PagesPerTile: 4, DeleteKeyFunc: dkExtract, BlockSize: 1024},
		entries, nil)

	if meta.Props.NumTiles == 0 || meta.Props.NumPages <= meta.Props.NumTiles {
		t.Fatalf("KiWi layout expected multiple pages per tile: tiles=%d pages=%d",
			meta.Props.NumTiles, meta.Props.NumPages)
	}
	// Iteration must still be in internal-key order despite the weave.
	it := r.NewIter()
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		if it.Key().Compare(entries[i].key) != 0 {
			t.Fatalf("entry %d out of order: got %s want %s", i, it.Key(), entries[i].key)
		}
		i++
	}
	if i != len(entries) {
		t.Fatalf("iterated %d of %d", i, len(entries))
	}
}

func TestSeekGEBothLayouts(t *testing.T) {
	for _, tiles := range []int{1, 4} {
		fs := vfs.NewMemFS()
		entries := sortedEntries(1000, false)
		r, _ := buildTable(t, fs, "t.sst",
			WriterOptions{PagesPerTile: tiles, DeleteKeyFunc: dkExtract, BlockSize: 512},
			entries, nil)
		it := r.NewIter()
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 300; trial++ {
			i := rng.Intn(len(entries))
			target := entries[i].key
			if !it.SeekGE(target) {
				t.Fatalf("tiles=%d SeekGE(%s) invalid", tiles, target)
			}
			if it.Key().Compare(target) != 0 {
				t.Fatalf("tiles=%d SeekGE(%s) landed on %s", tiles, target, it.Key())
			}
			// Seeking between user keys lands on the next entry.
			between := base.MakeSearchKey(append(append([]byte(nil), entries[i].key.UserKey...), 0), base.MaxSeqNum)
			ok := it.SeekGE(between)
			if i == len(entries)-1 {
				if ok {
					t.Fatalf("tiles=%d seek past end should fail", tiles)
				}
			} else if !ok || it.Key().Compare(entries[i+1].key) != 0 {
				t.Fatalf("tiles=%d between-seek landed on %s want %s", tiles, it.Key(), entries[i+1].key)
			}
		}
	}
}

func TestGet(t *testing.T) {
	fs := vfs.NewMemFS()
	entries := sortedEntries(500, true)
	r, _ := buildTable(t, fs, "t.sst", WriterOptions{BloomBitsPerKey: 10}, entries, nil)
	for i := 0; i < 500; i += 13 {
		k := entries[i].key
		kind, v, seq, ok, err := r.Get(k.UserKey, base.MaxSeqNum)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", k, ok, err)
		}
		if kind != k.Kind() || seq != k.SeqNum() || string(v) != string(entries[i].value) {
			t.Fatalf("Get(%s) returned wrong entry", k)
		}
	}
	if _, _, _, ok, _ := r.Get([]byte("nope"), base.MaxSeqNum); ok {
		t.Fatal("found absent key")
	}
	// Snapshot-bounded get: entry seqs are n-i, so a low bound hides
	// early keys.
	if _, _, _, ok, _ := r.Get(entries[0].key.UserKey, 5); ok {
		t.Fatal("entry above snapshot seq should be invisible")
	}
}

func TestProperties(t *testing.T) {
	fs := vfs.NewMemFS()
	entries := []entry{
		{base.MakeInternalKey([]byte("a"), 9, base.KindSet), mkValue(500, 8)},
		{base.MakeInternalKey([]byte("b"), 8, base.KindDelete), base.EncodeTombstoneValue(77)},
		{base.MakeInternalKey([]byte("c"), 7, base.KindSet), mkValue(100, 8)},
		{base.MakeInternalKey([]byte("d"), 2, base.KindDelete), base.EncodeTombstoneValue(33)},
	}
	rts := []base.RangeTombstone{{Lo: 10, Hi: 20, Seq: 12, CreatedAt: 25}}
	r, meta := buildTable(t, fs, "t.sst", WriterOptions{DeleteKeyFunc: dkExtract}, entries, rts)
	p := r.Props()
	if p != meta.Props {
		t.Fatal("persisted properties differ from writer meta")
	}
	if p.NumEntries != 4 || p.NumDeletes != 2 || p.NumRangeDeletes != 1 {
		t.Fatalf("counts: %+v", p)
	}
	if p.OldestTombstone != 25 {
		t.Fatalf("OldestTombstone = %d, want 25 (range tombstone)", p.OldestTombstone)
	}
	if p.DeleteKeyMin != 100 || p.DeleteKeyMax != 500 {
		t.Fatalf("dk span = [%d,%d]", p.DeleteKeyMin, p.DeleteKeyMax)
	}
	if p.MaxSeqNum != 12 || p.MinSeqNum != 2 {
		t.Fatalf("seq span = [%d,%d]", p.MinSeqNum, p.MaxSeqNum)
	}
	if meta.Smallest.Compare(entries[0].key) != 0 || meta.Largest.Compare(entries[3].key) != 0 {
		t.Fatal("bounds wrong")
	}
}

func TestRangeTombstonesPersisted(t *testing.T) {
	fs := vfs.NewMemFS()
	rts := []base.RangeTombstone{
		{Lo: 50, Hi: 60, Seq: 5, CreatedAt: 1},
		{Lo: 10, Hi: 20, Seq: 9, CreatedAt: 2},
		{Lo: 10, Hi: 30, Seq: 3, CreatedAt: 3},
	}
	r, _ := buildTable(t, fs, "t.sst", WriterOptions{}, sortedEntries(10, false), rts)
	got := r.RangeTombstones()
	if len(got) != 3 {
		t.Fatalf("got %d tombstones", len(got))
	}
	// Sorted by Lo asc, then Seq desc.
	if got[0].Lo != 10 || got[0].Seq != 9 || got[1].Lo != 10 || got[1].Seq != 3 || got[2].Lo != 50 {
		t.Fatalf("order: %+v", got)
	}
}

func TestBloomFilterWorks(t *testing.T) {
	fs := vfs.NewMemFS()
	entries := sortedEntries(5000, false)
	r, _ := buildTable(t, fs, "t.sst", WriterOptions{BloomBitsPerKey: 10}, entries, nil)
	for _, e := range entries[:100] {
		if !r.MayContain(e.key.UserKey) {
			t.Fatalf("false negative for %q", e.key.UserKey)
		}
	}
	fp := 0
	for i := 0; i < 5000; i++ {
		if r.MayContain([]byte(fmt.Sprintf("absent%08d", i))) {
			fp++
		}
	}
	if rate := float64(fp) / 5000; rate > 0.05 {
		t.Fatalf("bloom FPR %.4f too high", rate)
	}
}

func TestNoBloomAlwaysMaybe(t *testing.T) {
	fs := vfs.NewMemFS()
	r, _ := buildTable(t, fs, "t.sst", WriterOptions{BloomBitsPerKey: -1}, sortedEntries(10, false), nil)
	if !r.MayContain([]byte("anything")) {
		t.Fatal("filterless table must answer maybe")
	}
}

func TestOutOfOrderAddRejected(t *testing.T) {
	fs := vfs.NewMemFS()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, WriterOptions{})
	if err := w.Add(base.MakeInternalKey([]byte("b"), 2, base.KindSet), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(base.MakeInternalKey([]byte("a"), 1, base.KindSet), nil); err == nil {
		t.Fatal("out-of-order add accepted")
	}
	// Same key with HIGHER seq sorts earlier -> also out of order.
	if err := w.Add(base.MakeInternalKey([]byte("b"), 9, base.KindSet), nil); err == nil {
		t.Fatal("newer version after older accepted")
	}
}

func TestPageFilterDropsCoveredPages(t *testing.T) {
	fs := vfs.NewMemFS()
	// Values carry dk == i; with 4 pages per tile the low-dk entries
	// cluster into droppable pages.
	n := 2000
	entries := make([]entry, n)
	for i := 0; i < n; i++ {
		entries[i] = entry{
			key:   base.MakeInternalKey([]byte(fmt.Sprintf("key%08d", i)), base.SeqNum(i+1), base.KindSet),
			value: mkValue(uint64(i*977%n), 24),
		}
	}
	r, _ := buildTable(t, fs, "t.sst",
		WriterOptions{PagesPerTile: 4, DeleteKeyFunc: dkExtract, BlockSize: 1024},
		entries, nil)

	rt := base.RangeTombstone{Lo: 0, Hi: uint64(n / 2), Seq: base.SeqNum(n + 10)}
	it := r.NewCompactionIter(func(p PageInfo) bool { return !p.Droppable(rt) })
	kept := 0
	for ok := it.First(); ok; ok = it.Next() {
		kept++
	}
	if it.Dropped() == 0 {
		t.Fatal("no pages dropped despite covering half the delete-key space")
	}
	// Every surviving entry from a dropped page is gone; all entries
	// with dk >= n/2 must survive (they can only be in kept pages).
	survivorsWanted := 0
	for _, e := range entries {
		if dkExtract(e.value) >= uint64(n/2) {
			survivorsWanted++
		}
	}
	if kept < survivorsWanted {
		t.Fatalf("page drops lost uncovered entries: kept %d, need >= %d", kept, survivorsWanted)
	}
	if it.BytesLoaded() == 0 {
		t.Fatal("BytesLoaded not tracked")
	}
}

func TestPagesWithTombstonesNeverDroppable(t *testing.T) {
	p := PageInfo{DKMin: 0, DKMax: 10, MaxSeq: 1, HasTombstones: true}
	rt := base.RangeTombstone{Lo: 0, Hi: 100, Seq: 50}
	if p.Droppable(rt) {
		t.Fatal("page with tombstones must not be droppable")
	}
	p.HasTombstones = false
	if !p.Droppable(rt) {
		t.Fatal("clean covered page should be droppable")
	}
	p.MaxSeq = 50
	if p.Droppable(rt) {
		t.Fatal("page with entries at/after the tombstone seq must not be droppable")
	}
}

func TestCorruptBlockDetected(t *testing.T) {
	fs := vfs.NewMemFS()
	entries := sortedEntries(1000, false)
	_, _ = buildTable(t, fs, "t.sst", WriterOptions{}, entries, nil)

	// Flip one byte in the first data block.
	f, _ := fs.Open("t.sst")
	size, _ := f.Size()
	buf := make([]byte, size)
	f.ReadAt(buf, 0)
	f.Close()
	buf[10] ^= 0xff
	w, _ := fs.Create("t2.sst")
	w.Write(buf)
	w.Close()

	rf, _ := fs.Open("t2.sst")
	r, err := Open(rf) // metadata blocks are at the end; open succeeds
	if err != nil {
		t.Skip("corruption hit a metadata block; open rejected it, which is also correct")
	}
	it := r.NewIter()
	for ok := it.First(); ok; ok = it.Next() {
	}
	if it.Error() == nil {
		t.Fatal("corrupt data block not detected during iteration")
	}
}

func TestCorruptFooterRejected(t *testing.T) {
	fs := vfs.NewMemFS()
	_, _ = buildTable(t, fs, "t.sst", WriterOptions{}, sortedEntries(10, false), nil)
	f, _ := fs.Open("t.sst")
	size, _ := f.Size()
	buf := make([]byte, size)
	f.ReadAt(buf, 0)
	f.Close()
	buf[len(buf)-10] ^= 0xff // inside the footer
	w, _ := fs.Create("bad.sst")
	w.Write(buf)
	w.Close()
	rf, _ := fs.Open("bad.sst")
	if _, err := Open(rf); err == nil {
		t.Fatal("corrupt footer accepted")
	}
}

func TestTinyFileRejected(t *testing.T) {
	fs := vfs.NewMemFS()
	f, _ := fs.Create("tiny")
	f.Write([]byte("not a table"))
	f.Close()
	rf, _ := fs.Open("tiny")
	if _, err := Open(rf); err == nil {
		t.Fatal("tiny file accepted")
	}
}

func TestEmptyTable(t *testing.T) {
	fs := vfs.NewMemFS()
	r, meta := buildTable(t, fs, "t.sst", WriterOptions{}, nil, nil)
	if meta.HasEntries() {
		t.Fatal("empty table reports entries")
	}
	it := r.NewIter()
	if it.First() {
		t.Fatal("empty table iterated")
	}
	if it.SeekGE(base.MakeSearchKey([]byte("x"), base.MaxSeqNum)) {
		t.Fatal("empty table seek succeeded")
	}
}

func TestRangeTombstoneOnlyTable(t *testing.T) {
	fs := vfs.NewMemFS()
	rts := []base.RangeTombstone{{Lo: 1, Hi: 9, Seq: 4, CreatedAt: 2}}
	r, meta := buildTable(t, fs, "t.sst", WriterOptions{}, nil, rts)
	if !meta.HasEntries() {
		t.Fatal("tombstone-only table should count as non-empty")
	}
	if len(r.RangeTombstones()) != 1 {
		t.Fatal("tombstone lost")
	}
	if it := r.NewIter(); it.First() {
		t.Fatal("no point entries expected")
	}
}

// TestIterSeekThenNextExhaustsInOrder drives mixed operations against a
// reference.
func TestIterSeekThenNextExhaustsInOrder(t *testing.T) {
	fs := vfs.NewMemFS()
	entries := sortedEntries(777, true)
	r, _ := buildTable(t, fs, "t.sst", WriterOptions{PagesPerTile: 3, DeleteKeyFunc: dkExtract, BlockSize: 700}, entries, nil)
	it := r.NewIter()
	start := 300
	if !it.SeekGE(entries[start].key) {
		t.Fatal("seek failed")
	}
	for i := start; i < len(entries); i++ {
		if it.Key().Compare(entries[i].key) != 0 {
			t.Fatalf("at %d: got %s want %s", i, it.Key(), entries[i].key)
		}
		if i+1 < len(entries) {
			if !it.Next() {
				t.Fatalf("Next failed at %d: %v", i, it.Error())
			}
		}
	}
	if it.Next() {
		t.Fatal("iterator should be exhausted")
	}
}

func TestWriterMetaSizeMatchesFile(t *testing.T) {
	fs := vfs.NewMemFS()
	_, meta := buildTable(t, fs, "t.sst", WriterOptions{}, sortedEntries(100, false), nil)
	f, _ := fs.Open("t.sst")
	size, _ := f.Size()
	f.Close()
	if uint64(size) != meta.Size {
		t.Fatalf("meta.Size %d != file size %d", meta.Size, size)
	}
}

// TestRandomizedEntriesBothLayouts fuzzes random entry sets through both
// layouts and checks full-iteration equivalence with the sorted input.
func TestRandomizedEntriesBothLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 50 + rng.Intn(800)
		entries := make([]entry, n)
		for i := range entries {
			entries[i] = entry{
				key:   base.MakeInternalKey([]byte(fmt.Sprintf("k%010d", rng.Intn(1<<30))), base.SeqNum(i+1), base.KindSet),
				value: mkValue(uint64(rng.Intn(10_000)), rng.Intn(64)),
			}
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].key.Compare(entries[j].key) < 0 })
		for _, tiles := range []int{1, 4} {
			fs := vfs.NewMemFS()
			r, _ := buildTable(t, fs, "t.sst",
				WriterOptions{PagesPerTile: tiles, DeleteKeyFunc: dkExtract, BlockSize: 512},
				entries, nil)
			it := r.NewIter()
			i := 0
			for ok := it.First(); ok; ok = it.Next() {
				if it.Key().Compare(entries[i].key) != 0 {
					t.Fatalf("trial %d tiles %d entry %d: %s != %s", trial, tiles, i, it.Key(), entries[i].key)
				}
				i++
			}
			if i != n {
				t.Fatalf("trial %d tiles %d: iterated %d of %d", trial, tiles, i, n)
			}
		}
	}
}

// kiwiBenchEntries returns n sorted entries shaped like the kiwi_retention
// workload's: 16-byte keys and 64-byte values whose delete keys are scattered
// over the key order, so a KiWi tile's pages each take a slice of its keys.
func kiwiBenchEntries(n int) []entry {
	out := make([]entry, n)
	for i := range out {
		out[i] = entry{
			key:   base.MakeInternalKey([]byte(fmt.Sprintf("k%015d", i)), base.SeqNum(n-i), base.KindSet),
			value: mkValue(uint64(i)*2654435761%uint64(n), 56),
		}
	}
	return out
}

// BenchmarkTableWrite prices a 10 000-entry table in the standard layout
// (h=1) and in KiWi's with four pages per tile (h=4), whose weave is the
// difference.
func BenchmarkTableWrite(b *testing.B) {
	entries := kiwiBenchEntries(10_000)
	for _, h := range []int{1, 4} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			fs := vfs.NewMemFS()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, _ := fs.Create("bench.sst")
				w := NewWriter(f, WriterOptions{BloomBitsPerKey: 10, PagesPerTile: h, DeleteKeyFunc: dkExtract})
				for _, e := range entries {
					w.Add(e.key, e.value)
				}
				w.Finish()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(entries)), "ns/entry")
		})
	}
}

// BenchmarkTableGet prices a point lookup that hits, in both layouts, with
// every block read from the file (no cache) and with every block cached; and
// a Lookup of a key inside the table's range that it does not hold, which the
// filters answer: one file-filter probe at h = 1, a tile search and the
// tile's page-filter probes at h = 4.
func BenchmarkTableGet(b *testing.B) {
	entries := kiwiBenchEntries(10_000)
	absent := make([][]byte, len(entries))
	for i, e := range entries {
		absent[i] = append(bytes.Clone(e.key.UserKey), 'x')
	}
	for _, h := range []int{1, 4} {
		fs := vfs.NewMemFS()
		f, _ := fs.Create("bench.sst")
		w := NewWriter(f, WriterOptions{BloomBitsPerKey: 10, PagesPerTile: h, DeleteKeyFunc: dkExtract})
		for _, e := range entries {
			w.Add(e.key, e.value)
		}
		w.Finish()
		rf, _ := fs.Open("bench.sst")
		r, err := Open(rf)
		if err != nil {
			b.Fatal(err)
		}
		for _, cached := range []bool{false, true} {
			name := fmt.Sprintf("h=%d/no-cache", h)
			if cached {
				name = fmt.Sprintf("h=%d/cache", h)
				r.SetCache(cache.New(64<<20), 1)
				for _, e := range entries {
					r.Get(e.key.UserKey, base.MaxSeqNum)
				}
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, _, ok, err := r.Get(entries[i*7919%len(entries)].key.UserKey, base.MaxSeqNum); !ok || err != nil {
						b.Fatal(ok, err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("h=%d/absent-in-range", h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res, err := r.Lookup(absent[i*7919%len(absent)], base.MaxSeqNum); res.Found || err != nil {
					b.Fatal(res, err)
				}
			}
		})
	}
}

// TestPrefixFilterTableStillReads opens tables written when the writer could
// add a prefix Bloom filter (over key prefixes of up to 4 bytes): a filter
// block, and its triple after the properties' fixed fields. The reader
// ignores both, and every block it reads passes its checksum. The tables
// hold sortedEntries(300, true) and one range tombstone, in both layouts.
func TestPrefixFilterTableStillReads(t *testing.T) {
	entries := sortedEntries(300, true)
	for _, h := range []int{1, 4} {
		f, err := vfs.OSFS{}.Open(filepath.Join("testdata", fmt.Sprintf("prefix-filter-h%d.sst", h)))
		if err != nil {
			t.Fatal(err)
		}
		r, err := Open(f)
		if err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		if p := r.Props(); p.NumEntries != 300 || p.NumRangeDeletes != 1 {
			t.Fatalf("h=%d: properties %+v", h, p)
		}
		if rts := r.RangeTombstones(); len(rts) != 1 || rts[0] != (base.RangeTombstone{Lo: 5, Hi: 9, Seq: 400, CreatedAt: 3}) {
			t.Fatalf("h=%d: range tombstones %v", h, rts)
		}
		it := r.NewIter()
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			if it.Key().Compare(entries[n].key) != 0 || !bytes.Equal(it.Value(), entries[n].value) {
				t.Fatalf("h=%d: entry %d reads back %s, want %s", h, n, it.Key(), entries[n].key)
			}
			n++
		}
		if err := it.Error(); err != nil || n != len(entries) {
			t.Fatalf("h=%d: iterated %d of %d entries, err %v", h, n, len(entries), err)
		}
		for _, e := range entries {
			if !r.MayContain(e.key.UserKey) {
				t.Fatalf("h=%d: filter misses %s", h, e.key)
			}
			kind, v, seq, found, err := r.Get(e.key.UserKey, base.MaxSeqNum)
			if err != nil || !found || kind != e.key.Kind() || seq != e.key.SeqNum() || !bytes.Equal(v, e.value) {
				t.Fatalf("h=%d: Get(%s) = %v %q #%d found=%v err=%v", h, e.key, kind, v, seq, found, err)
			}
		}
		r.Close()
	}
}
