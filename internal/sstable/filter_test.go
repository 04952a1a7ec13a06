package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/base"
	"repro/internal/vfs"
)

// checkAllFound asserts the page filters' contract on a table holding
// entries: MayContain admits every written user key, and Get and Lookup at
// each version's own sequence number return that version — unfiltered — and
// one below it whatever a table iterator sought there returns.
func checkAllFound(t *testing.T, r *Reader, entries []entry, what string) {
	t.Helper()
	for _, e := range entries {
		user, seq := e.key.UserKey, e.key.SeqNum()
		if !r.MayContain(user) {
			t.Fatalf("%s: MayContain(%q) = false for a written key", what, user)
		}
		kind, v, s, ok, err := r.Get(user, seq)
		if err != nil || !ok || kind != e.key.Kind() || s != seq || !bytes.Equal(v, e.value) {
			t.Fatalf("%s: Get(%s) = %v %d found=%v err=%v", what, e.key, kind, s, ok, err)
		}
		res, err := r.Lookup(user, seq)
		if err != nil || !res.Found || res.Filtered || res.Kind != e.key.Kind() || res.Seq != seq || !bytes.Equal(res.Value, e.value) {
			t.Fatalf("%s: Lookup(%s) = %+v, err=%v", what, e.key, res, err)
		}
		kind, v, s, ok, err = r.Get(user, seq-1)
		wkind, wv, ws, wok, werr := refGet(r, user, seq-1)
		if kind != wkind || !bytes.Equal(v, wv) || s != ws || ok != wok || err != werr {
			t.Fatalf("%s: Get(%q, %d) = %v %d %v %v, iterator says %v %d %v %v", what, user, seq-1, kind, s, ok, err, wkind, ws, wok, werr)
		}
	}
}

// TestPageFiltersNoFalseNegatives: a KiWi table carries a filter on every
// page and none for the file, and none of them hides a written key — for
// h ∈ {2, 4, 8}, over multi-version keys whose versions straddle tile
// boundaries, point tombstones and tiles shorter than h.
func TestPageFiltersNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	straddles, short := 0, 0
	for _, h := range []int{2, 4, 8} {
		for trial := 0; trial < 10; trial++ {
			entries := weaveEntries(rng, 1+rng.Intn(600))
			opts := WriterOptions{BlockSize: 64 << rng.Intn(3), PagesPerTile: h, BloomBitsPerKey: 10, DeleteKeyFunc: dkExtract}
			r, _ := buildTable(t, vfs.NewMemFS(), "t.sst", opts, entries, nil)
			what := fmt.Sprintf("h=%d trial %d", h, trial)
			if r.hasFilter {
				t.Fatalf("%s: a KiWi table carries a file filter", what)
			}
			for pi, e := range r.entries {
				if e.filter.SizeBytes() == 0 {
					t.Fatalf("%s: page %d has no filter", what, pi)
				}
			}
			for _, g := range r.groups {
				if g[1]-g[0] < h {
					short++
				}
			}
			it := r.NewIter()
			prevTile, prevUser := -1, []byte(nil)
			for ok := it.First(); ok; ok = it.Next() {
				if it.gi != prevTile && prevTile >= 0 && base.Compare(it.Key().UserKey, prevUser) == 0 {
					straddles++
				}
				prevTile, prevUser = it.gi, append(prevUser[:0], it.Key().UserKey...)
			}
			checkAllFound(t, r, entries, what)
		}
	}
	if straddles == 0 || short == 0 {
		t.Fatalf("fixture covers %d keys straddling a tile boundary and %d tiles shorter than h; want both", straddles, short)
	}
}

// countingFile counts the reads issued against a table file.
type countingFile struct {
	vfs.File
	reads int
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads++
	return f.File.ReadAt(p, off)
}

// TestLookupReadsOnePagePerTile: with no block cache, a lookup of a present
// key in an h = 4 table reads the one page holding it plus the odd false
// positive, where a table filter left it reading all four; a lookup of an
// absent key inside the table's range reads almost nothing.
func TestLookupReadsOnePagePerTile(t *testing.T) {
	entries := kiwiBenchEntries(10_000)
	fs := vfs.NewMemFS()
	buildTable(t, fs, "t.sst", WriterOptions{BloomBitsPerKey: 10, PagesPerTile: 4, DeleteKeyFunc: dkExtract}, entries, nil)
	rf, err := fs.Open("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	f := &countingFile{File: rf}
	r, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumPages() < 4*r.NumTiles()-1 {
		t.Fatalf("fixture: %d pages in %d tiles, want full tiles of 4", r.NumPages(), r.NumTiles())
	}
	f.reads = 0
	for _, e := range entries {
		if res, err := r.Lookup(e.key.UserKey, base.MaxSeqNum); err != nil || !res.Found {
			t.Fatalf("Lookup(%s) = %+v, %v", e.key, res, err)
		}
	}
	if perGet := float64(f.reads) / float64(len(entries)); perGet < 1 || perGet > 1.1 {
		t.Fatalf("a present-key lookup reads %.3f pages, want 1 plus false positives (ceiling 1.1)", perGet)
	}

	f.reads = 0
	filtered := 0
	for _, e := range entries {
		absent := append(bytes.Clone(e.key.UserKey), 'x') // sorts inside the key's tile
		res, err := r.Lookup(absent, base.MaxSeqNum)
		if err != nil || res.Found {
			t.Fatalf("Lookup(%q) = %+v, %v", absent, res, err)
		}
		if res.Filtered {
			filtered++
		}
	}
	if perGet := float64(f.reads) / float64(len(entries)); perGet > 0.1 || filtered < len(entries)*9/10 {
		t.Fatalf("absent-key lookups read %.3f pages each, %d of %d filtered out", perGet, filtered, len(entries))
	}
}

// FuzzPageFilter checks the page filters' one hard guarantee over
// fuzzer-chosen user keys, version counts, kinds, pages per tile and block
// size: every written version of every key is admitted by MayContain and
// found, unfiltered, by Get and Lookup at its own sequence number. Keys are
// carved from raw at NUL bytes, sorted and deduplicated; with s the i-th
// shape byte (cycling), the i-th key takes 1 + s%4 versions, every other one
// a tombstone when s has its top bit set.
func FuzzPageFilter(f *testing.F) {
	f.Add([]byte("user1/a\x00user1/b\x00user2/a\x00zebra"), []byte{1, 2, 0x83, 0}, uint8(4), uint8(0))
	f.Add([]byte("a\x00ab\x00abc\x00abcd\x00abcde"), []byte{3}, uint8(2), uint8(1))
	f.Add([]byte("\x00\x00\x00"), []byte{}, uint8(8), uint8(2))
	f.Add(bytes.Repeat([]byte("k\x00kk\x00"), 60), []byte{3, 0x80, 2, 1}, uint8(3), uint8(0))

	f.Fuzz(func(t *testing.T, raw, shape []byte, h, block uint8) {
		var keys [][]byte
		for _, part := range bytes.Split(raw, []byte{0}) {
			if len(part) == 0 || len(part) > 64 {
				continue
			}
			keys = append(keys, part)
			if len(keys) == 256 {
				break
			}
		}
		slices.SortFunc(keys, base.Compare)
		var entries []entry
		seq := base.SeqNum(4*len(keys) + 1)
		for i, k := range keys {
			if i > 0 && base.Compare(k, keys[i-1]) == 0 {
				continue
			}
			s := byte(i)
			if len(shape) > 0 {
				s = shape[i%len(shape)]
			}
			for v := 0; v <= int(s%4); v++ {
				kind, val := base.KindSet, mkValue(uint64(s)+uint64(v), int(s)%40)
				if s&0x80 != 0 && v%2 == 0 {
					kind, val = base.KindDelete, base.EncodeTombstoneValue(base.Timestamp(v))
				}
				entries = append(entries, entry{base.MakeInternalKey(k, seq, kind), val})
				seq--
			}
		}
		if len(entries) == 0 {
			return
		}
		opts := WriterOptions{BlockSize: 64 << (block % 4), PagesPerTile: 2 + int(h%7), BloomBitsPerKey: 10, DeleteKeyFunc: dkExtract}
		r, _ := buildTable(t, vfs.NewMemFS(), "pf.sst", opts, entries, nil)
		checkAllFound(t, r, entries, fmt.Sprintf("h=%d block=%d", opts.PagesPerTile, opts.BlockSize))
	})
}

// TestMalformedPageFilterIsCorrupt: an index entry whose filter trailer has
// no bits or a probe count outside [1, 30] fails Open with ErrCorrupt; a
// well-formed one, or none, opens.
func TestMalformedPageFilterIsCorrupt(t *testing.T) {
	for _, c := range []struct {
		trailer []byte
		corrupt bool
	}{{nil, false}, {[]byte{30, 0xff}, false}, {[]byte{6}, true}, {[]byte{0, 0xff}, true}, {[]byte{31, 0xff, 0xff}, true}} {
		fs := vfs.NewMemFS()
		f, err := fs.Create("bad.sst")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(f, WriterOptions{PagesPerTile: 2})
		w.lastEnc = base.MakeInternalKey([]byte("a"), 1, base.KindSet).Encode(nil)
		w.dataBuf.Add(w.lastEnc, []byte("v"))
		h, err := w.writeBlock(w.dataBuf.Finish())
		if err != nil {
			t.Fatal(err)
		}
		w.index.Add(w.lastEnc, append(encodeIndexEntry(nil, indexEntry{handle: h}), c.trailer...))
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		rf, err := fs.Open("bad.sst")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Open(rf); c.corrupt && !errors.Is(err, ErrCorrupt) || !c.corrupt && err != nil {
			t.Errorf("trailer %v: Open returned %v, want corrupt=%v", c.trailer, err, c.corrupt)
		}
	}
}
