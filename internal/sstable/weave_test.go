package sstable

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/base"
	"repro/internal/bloom"
	"repro/internal/vfs"
)

// refWeaveTile is the reference weave: the tile sorted by delete key with
// ties broken by comparing internal keys, then every page re-sorted by
// internal key — two comparator sorts, where Writer.weaveTile sorts arrival
// ranks — and each page's filter built from its user keys hashed afresh. It
// closes the tile as flushTile does.
func refWeaveTile(w *Writer) error {
	arena := w.arena
	byKey := func(a, b tileEntry) int { return base.CompareEncoded(a.key(arena), b.key(arena)) }
	pages := min(w.opts.PagesPerTile, len(w.tile))
	if pages > 1 {
		slices.SortFunc(w.tile, func(a, b tileEntry) int {
			switch {
			case a.hasDK != b.hasDK:
				if a.hasDK {
					return 1
				}
				return -1
			case a.dk != b.dk:
				return cmp.Compare(a.dk, b.dk)
			}
			return byKey(a, b)
		})
	}
	per := (len(w.tile) + pages - 1) / pages
	for start := 0; start < len(w.tile); start += per {
		page := w.tile[start:min(start+per, len(w.tile))]
		if pages > 1 {
			slices.SortFunc(page, byKey)
		}
		var hashes []uint64
		for _, e := range page {
			key := e.key(arena)
			w.dataBuf.Add(key, e.value(arena))
			ik := base.DecodeInternalKey(key)
			w.page.note(ik.Trailer, e.dk, e.hasDK)
			if w.opts.BloomBitsPerKey > 0 {
				hashes = append(hashes, bloom.Hash(ik.UserKey))
			}
		}
		if err := w.writePage(hashes); err != nil {
			return err
		}
	}
	w.arena, w.tile = w.arena[:0], w.tile[:0]
	w.tileBytes = 0
	w.tileID++
	w.meta.Props.NumTiles++
	return nil
}

// writeRefTable writes entries through a Writer whose tiles are closed by
// refWeaveTile instead of weaveTile, and reports how many tiles held fewer
// entries than there are pages per tile.
func writeRefTable(t *testing.T, fs *vfs.MemFS, name string, opts WriterOptions, entries []entry) (short int) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, opts)
	tileCap := w.opts.BlockSize * w.opts.PagesPerTile
	w.opts.BlockSize = 1 << 40 // Add never closes a tile; the loop below does
	closeTile := func() {
		if len(w.tile) < w.opts.PagesPerTile {
			short++
		}
		if err := refWeaveTile(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range entries {
		if err := w.Add(e.key, e.value); err != nil {
			t.Fatal(err)
		}
		if w.tileBytes >= tileCap {
			closeTile()
		}
	}
	if w.tileBytes > 0 {
		closeTile()
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return short
}

// weaveEntries returns n sorted entries over few delete keys, so that many
// share one: some user keys carry several versions, about one in five is a
// point tombstone (no delete key), and the odd value is large enough to fill
// a tile on its own.
func weaveEntries(rng *rand.Rand, n int) []entry {
	return weaveEntriesWith(rng, n, 5, func(rng *rand.Rand) uint64 { return uint64(rng.Intn(4)) })
}

// weaveEntriesWith is weaveEntries with one entry in tombstoneEvery a point
// tombstone and each delete key drawn by dk.
func weaveEntriesWith(rng *rand.Rand, n, tombstoneEvery int, dk func(*rand.Rand) uint64) []entry {
	out := make([]entry, 0, n)
	seq := base.SeqNum(10 * n)
	for k := 0; len(out) < n; k++ {
		user := []byte(fmt.Sprintf("k%05d", k))
		for v := 1 + rng.Intn(3); v > 0 && len(out) < n; v-- {
			seq -= base.SeqNum(1 + rng.Intn(5))
			if rng.Intn(tombstoneEvery) == 0 {
				out = append(out, entry{base.MakeInternalKey(user, seq, base.KindDelete), base.EncodeTombstoneValue(base.Timestamp(rng.Intn(100)))})
				continue
			}
			pad := rng.Intn(40)
			if rng.Intn(20) == 0 {
				pad = 300 + rng.Intn(400)
			}
			out = append(out, entry{base.MakeInternalKey(user, seq, base.KindSet), mkValue(dk(rng), pad)})
		}
	}
	return out
}

// TestWeaveMatchesReference: the rank weave writes byte for byte the table
// the two comparator sorts write, over tiles with many equal delete keys,
// point tombstones, several versions of one user key and tiles shorter than h.
func TestWeaveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	short := 0
	for _, h := range []int{2, 3, 4, 8} {
		for trial := 0; trial < 30; trial++ {
			entries := weaveEntries(rng, 1+rng.Intn(400))
			opts := WriterOptions{
				BlockSize: 64 << rng.Intn(4), PagesPerTile: h,
				BloomBitsPerKey: 10, DeleteKeyFunc: dkExtract,
			}
			fs := vfs.NewMemFS()
			buildTable(t, fs, "rank.sst", opts, entries, nil)
			short += writeRefTable(t, fs, "ref.sst", opts, entries)
			if !bytes.Equal(fileBytes(t, fs, "rank.sst"), fileBytes(t, fs, "ref.sst")) {
				t.Fatalf("h=%d trial %d (%d entries, block %d): the rank weave and the reference wrote different bytes",
					h, trial, len(entries), opts.BlockSize)
			}
		}
	}
	if short == 0 {
		t.Fatal("no tile shorter than h was written; the inputs do not cover that case")
	}
}

// TestWeaveWideDeleteKeysMatchReference extends TestWeaveMatchesReference past
// four delete keys: spans of 2^32 and of the whole uint64 range, which the
// packed ranking cannot always hold and leaves to the comparator sort; tiles
// holding both 0 and MaxUint64, which must take that fallback; one delete key
// for all; tombstones only; and h up to 32. Every table must be byte for byte
// the reference's, and whether a tile was packed is asserted where it is
// determined.
func TestWeaveWideDeleteKeysMatchReference(t *testing.T) {
	const (
		packed   = iota // every tile ranks without the comparator sort
		fallback        // some tile takes the comparator sort
		either
	)
	extremes := []uint64{0, math.MaxUint64}
	for _, c := range []struct {
		name           string
		tombstoneEvery int
		dk             func(*rand.Rand) uint64
		want           int
	}{
		{"uniform-2^32", 5, func(rng *rand.Rand) uint64 { return rng.Uint64() >> 32 }, packed},
		{"uniform-2^56", 5, func(rng *rand.Rand) uint64 { return rng.Uint64() >> 8 }, either},
		{"uniform-2^64", 5, func(rng *rand.Rand) uint64 { return rng.Uint64() }, either},
		{"0-and-max", 5, func(rng *rand.Rand) uint64 { return extremes[rng.Intn(2)] }, fallback},
		{"all-equal", 5, func(*rand.Rand) uint64 { return 1 << 40 }, packed},
		{"tombstones-only", 1, func(*rand.Rand) uint64 { panic("no delete key is drawn") }, packed},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			sorted := 0
			for _, h := range []int{2, 3, 4, 8, 16, 32} {
				for trial := 0; trial < 10; trial++ {
					entries := weaveEntriesWith(rng, 1+rng.Intn(600), c.tombstoneEvery, c.dk)
					opts := WriterOptions{
						BlockSize: 64 << rng.Intn(4), PagesPerTile: h,
						BloomBitsPerKey: 10, DeleteKeyFunc: dkExtract,
					}
					fs := vfs.NewMemFS()
					sorted += writeCountingSorted(t, fs, "rank.sst", opts, entries)
					writeRefTable(t, fs, "ref.sst", opts, entries)
					if !bytes.Equal(fileBytes(t, fs, "rank.sst"), fileBytes(t, fs, "ref.sst")) {
						t.Fatalf("h=%d trial %d (%d entries, block %d): the weave and the reference wrote different bytes",
							h, trial, len(entries), opts.BlockSize)
					}
				}
			}
			switch {
			case c.want == packed && sorted > 0:
				t.Fatalf("%d tiles took the comparator sort, want none", sorted)
			case c.want == fallback && sorted == 0:
				t.Fatal("no tile took the comparator sort")
			}
		})
	}
}

// writeCountingSorted writes entries through a Writer and returns how many of
// its tiles rankSorted ranked.
func writeCountingSorted(t *testing.T, fs *vfs.MemFS, name string, opts WriterOptions, entries []entry) int {
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
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return w.sortedTiles
}
