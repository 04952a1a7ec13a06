package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/base"
	"repro/internal/memtable"
	"repro/internal/storetest"
	"repro/internal/vfs"
)

// discardFS is a MemFS whose table files keep nothing: what a flush
// allocates is then the engine's own, not the table file's pages.
type discardFS struct{ *vfs.MemFS }

func (fs discardFS) Create(name string) (vfs.File, error) {
	if strings.HasSuffix(name, ".sst") {
		return &discardFile{}, nil
	}
	return fs.MemFS.Create(name)
}

type discardFile struct{ size int64 }

func (f *discardFile) Write(p []byte) (int, error)            { f.size += int64(len(p)); return len(p), nil }
func (f *discardFile) WriteAt(p []byte, _ int64) (int, error) { return f.Write(p) }
func (f *discardFile) ReadAt([]byte, int64) (int, error) {
	return 0, fmt.Errorf("discardFile: no reads")
}
func (f *discardFile) Sync() error          { return nil }
func (f *discardFile) Close() error         { return nil }
func (f *discardFile) Size() (int64, error) { return f.size, nil }

// TestWarmFlushAllocatesNoWriterBuffers: a flush takes its sstable writer
// from the DB's pool, so once one flush has sized a writer, the next
// allocates none of the writer's buffers, however large the memtable: only
// the few hundred bytes the finished table keeps (its bounds and
// properties). With filters on, the table's Bloom filter is built in the
// writer's own buffer too.
func TestWarmFlushAllocatesNoWriterBuffers(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, bits := range []int{-1, 10} {
		t.Run(fmt.Sprintf("bloom=%d", bits), func(t *testing.T) {
			opts := testOptions(discardFS{vfs.NewMemFS()}, &base.LogicalClock{})
			opts.BloomBitsPerKey = bits
			d := mustOpen(t, opts)
			m := memtable.New()
			for i := 0; m.ApproximateBytes() < 1<<20; i++ {
				ik := base.MakeInternalKey([]byte(fmt.Sprintf("k%014d", i)), base.SeqNum(i+1), base.KindSet)
				m.Add(ik, storetest.Value(uint64(i), i))
			}
			flush := func() uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, _, err := d.writeMemTable(m); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			cold := flush()
			warm := flush()
			t.Logf("%d entries: the first flush allocates %d bytes, the next %d", m.Len(), cold, warm)
			if ceiling := uint64(1 << 10); warm > ceiling {
				t.Errorf("a warm flush of %d entries allocates %d bytes, want <= %d", m.Len(), warm, ceiling)
			}
		})
	}
}

// TestExpiredFlushAllocCeiling holds BenchmarkFlush/expired's allocations:
// a 4 MiB memtable past its DPT flushed and merged into level 1, from Flush
// until WaitIdle. The job's writer, its batches and the commit records come
// from pools, and opening a table copies its index separators into one
// allocation, so what is left is per table and per page: about 440 objects,
// some 175 of them 16 KiB MemFS pages, which the new tables take while the
// store's free list is still empty (about 740 when each separator was
// copied on its own, and 815 before jobs shared writers). The least of
// three runs counts, as the merge's writer goroutine may allocate a little
// more when it is scheduled late.
func TestExpiredFlushAllocCeiling(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("builds three 6 MiB stores")
	}
	const ceiling = 460
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		d, _, _ := expiredFlushDB(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := d.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("an expired flush allocates %d objects", least)
	if least > ceiling {
		t.Errorf("an expired flush allocates %d objects, ceiling %d", least, ceiling)
	}
}
