package core

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/base"
	"repro/internal/manifest"
	"repro/internal/vfs"
)

// goldenFlush pins the bytes of a flushed memtable — writeMemTable is the
// sstable writer's other caller, beside compaction.Run (whose outputs
// internal/compaction's TestGoldenTableBytes pins). 3 000 puts with
// overwrites, one delete in seven and two range deletes, prefix bloom on,
// flushed as one level-0 table at h = 1 and h = 4. Generated at PR 23
// (639fe90); h = 4 regenerated when page filters in the index entries
// replaced a KiWi table's filter block.
var goldenFlush = map[int]string{
	1: "92fb84b2893ececfd3917f5a20d21494ca6106352fa270a7513d314b1ec482c9",
	4: "3008d410e7d29c19906936866351e2d4fdd23815deb8c68ce276f87d5ac31701",
}

func TestGoldenFlushBytes(t *testing.T) {
	for _, h := range []int{1, 4} {
		fs := vfs.NewMemFS()
		opts := testOptions(fs, &base.LogicalClock{})
		opts.MemTableBytes = 4 << 20
		opts.PagesPerTile = h
		opts.PrefixBloomLength = 5
		d := mustOpen(t, opts)
		for i := 0; i < 3000; i++ {
			key := []byte(fmt.Sprintf("key%05d", i*7919%2000))
			var err error
			switch {
			case i%7 == 3:
				err = d.Delete(key)
			case i == 1000:
				err = d.DeleteSecondaryRange(100, 400)
			case i == 2500:
				err = d.DeleteSecondaryRange(50, 150)
			default:
				err = d.Put(key, append(testValue(uint64(i%1000), i), make([]byte, i%29)...))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		names, err := fs.List("db")
		if err != nil {
			t.Fatal(err)
		}
		var hashes []string
		for _, name := range names {
			if ft, _, ok := manifest.ParseFilename(name); !ok || ft != manifest.FileTypeTable {
				continue
			}
			f, err := fs.Open(filepath.Join("db", name))
			if err != nil {
				t.Fatal(err)
			}
			size, err := f.Size()
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, size)
			if _, err := f.ReadAt(data, 0); err != nil {
				t.Fatal(err)
			}
			f.Close()
			hashes = append(hashes, fmt.Sprintf("%x", sha256.Sum256(data)))
		}
		if got := strings.Join(hashes, ","); got != goldenFlush[h] {
			t.Errorf("h=%d: flushed table bytes changed: the flush wrote %q, golden %q", h, got, goldenFlush[h])
		}
	}
}
