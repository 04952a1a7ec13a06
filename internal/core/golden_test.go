package core

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/base"
	"repro/internal/manifest"
	"repro/internal/storetest"
	"repro/internal/vfs"
)

// goldenFlush pins the bytes of a flushed memtable — writeMemTable is the
// sstable writer's other caller, beside compaction.Run (whose outputs
// internal/compaction's TestGoldenTableBytes pins). 3 000 puts with
// overwrites, one delete in seven and two range deletes, flushed as one
// level-0 table at h = 1 and h = 4. Regenerated at 6ef740a when the fixture
// stopped writing a prefix filter block.
var goldenFlush = map[int]string{
	1: "72f94b00719ce454995ea0ebbaf0a686abd0dec1feda432e9ec7d2cd7a54db3e",
	4: "65e42aa370d8f742a08a1a8b82811fcde0b3fd71b6933d4a2a61d7690f62abcf",
}

func TestGoldenFlushBytes(t *testing.T) {
	for _, h := range []int{1, 4} {
		fs := vfs.NewMemFS()
		opts := testOptions(fs, &base.LogicalClock{})
		opts.MemTableBytes = 4 << 20
		opts.PagesPerTile = h
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
				err = d.Put(key, append(storetest.Value(uint64(i%1000), i), make([]byte, i%29)...))
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
