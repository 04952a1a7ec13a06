package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/base"
	"repro/internal/vfs"
)

// fuzzSeedTable builds a complete, valid sstable with h pages per tile and
// returns its raw bytes.
func fuzzSeedTable(tb testing.TB, entries int, withRangeDel bool, h int) []byte {
	tb.Helper()
	fs := vfs.NewMemFS()
	f, err := fs.Create("seed.sst")
	if err != nil {
		tb.Fatal(err)
	}
	w := NewWriter(f, WriterOptions{BlockSize: 256, BloomBitsPerKey: 10, PagesPerTile: h, DeleteKeyFunc: dkExtract})
	seq := base.SeqNum(entries + 1)
	for i := 0; i < entries; i++ {
		key := []byte(fmt.Sprintf("key%04d", i))
		kind := base.KindSet
		val := []byte(fmt.Sprintf("value-%d", i))
		if i%7 == 3 {
			kind = base.KindDelete
			val = base.EncodeTombstoneValue(base.Timestamp(i))
		}
		if err := w.Add(base.MakeInternalKey(key, seq, kind), val); err != nil {
			tb.Fatal(err)
		}
		seq--
	}
	if withRangeDel {
		if err := w.AddRangeTombstone(base.RangeTombstone{Lo: 10, Hi: 90, Seq: 5, CreatedAt: 1}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		tb.Fatal(err)
	}
	g, err := fs.Open("seed.sst")
	if err != nil {
		tb.Fatal(err)
	}
	defer g.Close()
	size, err := g.Size()
	if err != nil {
		tb.Fatal(err)
	}
	data := make([]byte, size)
	if _, err := g.ReadAt(data, 0); err != nil && err != io.EOF {
		tb.Fatal(err)
	}
	return data
}

// fuzzOpenBytes materializes data as a MemFS file and opens it as a table.
func fuzzOpenBytes(tb testing.TB, data []byte) (*Reader, error) {
	tb.Helper()
	fs := vfs.NewMemFS()
	f, err := fs.Create("fuzz.sst")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	g, err := fs.Open("fuzz.sst")
	if err != nil {
		tb.Fatal(err)
	}
	r, err := Open(g)
	if err != nil {
		g.Close()
		return nil, err
	}
	return r, nil
}

// FuzzSSTableFooterProps hammers the table-open path — footer, properties,
// index (a KiWi table's page filters included), bloom, and range-tombstone
// decoding — plus a full scan and point lookups on any table that opens.
// Corruption must surface as an error (ideally wrapping ErrCorrupt), never as
// a panic or an infinite loop.
func FuzzSSTableFooterProps(f *testing.F) {
	valid := fuzzSeedTable(f, 120, true, 1)
	f.Add(valid)
	f.Add(fuzzSeedTable(f, 1, false, 1))
	f.Add(fuzzSeedTable(f, 120, true, 4))
	f.Add(valid[:len(valid)/2])          // lost the footer entirely
	f.Add(valid[:len(valid)-FooterSize]) // exactly the footer removed
	footFlip := append([]byte(nil), valid...)
	footFlip[len(footFlip)-9] ^= 0xff // corrupt the magic/version area
	f.Add(footFlip)
	handleFlip := append([]byte(nil), valid...)
	handleFlip[len(handleFlip)-FooterSize+3] ^= 0xff // corrupt a footer block handle
	f.Add(handleFlip)
	bodyFlip := append([]byte(nil), valid...)
	bodyFlip[len(bodyFlip)/3] ^= 0xff // corrupt a data block
	f.Add(bodyFlip)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, FooterSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := fuzzOpenBytes(t, data)
		if err != nil {
			return // rejected at open: acceptable for any corruption
		}
		defer r.Close()

		// Metadata accessors must not panic on whatever decoded.
		props := r.Props()
		_ = props.NumEntries
		_ = r.RangeTombstones()
		_ = r.NumPages()
		_ = r.NumTiles()
		for p := 0; p < r.NumPages(); p++ {
			_ = r.Page(p)
		}

		// A full scan must terminate. Each entry costs at least one byte on
		// disk, so entry count is bounded by the table size.
		it := r.NewIter()
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			if len(it.Key().UserKey) > len(data) || len(it.Value()) > len(data) {
				t.Fatalf("entry larger than the table: key=%d value=%d table=%d",
					len(it.Key().UserKey), len(it.Value()), len(data))
			}
			if n++; n > len(data)+1 {
				t.Fatalf("iterator yielded %d entries from a %d-byte table", n, len(data))
			}
		}
		if err := it.Error(); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("scan failed with a non-corruption error: %v", err)
		}

		// Point lookups: bloom + index + block decode, present and absent.
		for _, key := range [][]byte{[]byte("key0000"), []byte("key0050"), []byte("nope"), {}, bytes.Repeat([]byte{0xff}, 16)} {
			_ = r.MayContain(key)
			if _, _, _, _, err := r.Get(key, base.MaxSeqNum); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get(%q) failed with a non-corruption error: %v", key, err)
			}
			if _, err := r.Lookup(key, base.MaxSeqNum); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Lookup(%q) failed with a non-corruption error: %v", key, err)
			}
		}
	})
}
