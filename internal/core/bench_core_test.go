package core

// Micro-benchmarks for the engine's hot paths, complementing the
// paper-experiment benchmarks at the repository root.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/manifest"
	"repro/internal/memtable"
	"repro/internal/storetest"
	"repro/internal/vfs"
)

func benchDB(b *testing.B, mod func(*Options)) *DB {
	b.Helper()
	opts := Options{
		FS:                     vfs.NewMemFS(),
		Clock:                  &base.LogicalClock{},
		MemTableBytes:          4 << 20,
		DeleteKeyFunc:          storetest.DeleteKey,
		DisableAutoMaintenance: true,
		Compaction: compaction.Options{
			SizeRatio:       10,
			BaseLevelBytes:  8 << 20,
			TargetFileBytes: 2 << 20,
		},
	}
	if mod != nil {
		mod(&opts)
	}
	d, err := Open("bench", opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	return d
}

func BenchmarkPut(b *testing.B) {
	d := benchDB(b, nil)
	val := storetest.Value(1, 1)
	b.SetBytes(int64(16 + len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%014d", i)), val); err != nil {
			b.Fatal(err)
		}
		if i%4096 == 4095 {
			if err := d.WaitIdle(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBatchPut(b *testing.B) {
	d := benchDB(b, nil)
	val := storetest.Value(1, 1)
	b.SetBytes(int64(16 + len(val)))
	b.ResetTimer()
	batch := NewBatch()
	for i := 0; i < b.N; i++ {
		batch.Put([]byte(fmt.Sprintf("k%014d", i)), val)
		if batch.Len() == 128 {
			if err := d.Apply(batch); err != nil {
				b.Fatal(err)
			}
			batch.Reset()
			if err := d.WaitIdle(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := d.Apply(batch); err != nil {
		b.Fatal(err)
	}
}

func benchPopulated(b *testing.B, n int, mod func(*Options)) *DB {
	b.Helper()
	d := benchDB(b, mod)
	for i := 0; i < n; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%014d", i)), storetest.Value(uint64(i), i)); err != nil {
			b.Fatal(err)
		}
		if i%4096 == 4095 {
			if err := d.WaitIdle(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := d.CompactAll(); err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkGetHit(b *testing.B) {
	const n = 100_000
	d := benchPopulated(b, n, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("k%014d", (i*2654435761)%n))
		if _, err := d.Get(k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetMiss(b *testing.B) {
	d := benchPopulated(b, 100_000, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("miss%010d", i))
		if _, err := d.Get(k); err != ErrNotFound {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan100(b *testing.B) {
	const n = 100_000
	d := benchPopulated(b, n, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScan(b, d, (i*7919)%n, 100)
	}
}

// benchScan opens an iterator, seeks to key index from, steps over up to
// limit live entries and closes it.
func benchScan(b *testing.B, d *DB, from, limit int) {
	it, err := d.NewIter(IterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cnt := 0
	for ok := it.SeekGE([]byte(fmt.Sprintf("k%014d", from))); ok && cnt < limit; ok = it.Next() {
		cnt++
	}
	if err := it.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScan50AfterInstall times a 50-entry scan that is the first on a
// freshly installed version (a flush lands between every two scans, outside
// the timer): the mixed-traffic case, where a version is replaced before its
// scans could amortise a sorted view over it.
func BenchmarkScan50AfterInstall(b *testing.B) {
	const n = 100_000
	d := benchPopulated(b, n, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := d.Put([]byte(fmt.Sprintf("k%014d", (i*31)%n)), storetest.Value(uint64(i), i)); err != nil {
			b.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			b.Fatal(err)
		}
		if i%8 == 7 { // keep the run count, and so the merge width, bounded
			if err := d.CompactAll(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		benchScan(b, d, (i*7919)%n, 50)
	}
}

// BenchmarkGetHitRangeTombstones is BenchmarkGetHit under KiWi with 0 and
// with 100 live range tombstones (covering nothing): B/op and allocs/op must
// not depend on the tombstone population.
func BenchmarkGetHitRangeTombstones(b *testing.B) {
	for _, live := range []int{0, 100} {
		b.Run(fmt.Sprint(live), func(b *testing.B) {
			const n = 100_000
			d := benchPopulated(b, n, func(o *Options) {
				o.PagesPerTile = 4
				o.Compaction.Picker = compaction.PickFADE
				o.Compaction.DPT = 1 << 40
			})
			for i := 0; i < live; i++ {
				lo := base.DeleteKey(10*n + 10*i)
				if err := d.DeleteSecondaryRange(lo, lo+5); err != nil {
					b.Fatal(err)
				}
			}
			// Left in the memtable: flushed, they would add a table to probe
			// and the two cases would differ by more than the tombstones.
			if got := d.mem.NumRangeDeletes(); got != live {
				b.Fatalf("%d live range tombstones, want %d", got, live)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := []byte(fmt.Sprintf("k%014d", (i*2654435761)%n))
				if _, err := d.Get(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// slowSyncFS charges a fixed latency per Sync on top of MemFS. MemFS syncs
// are nearly free, which would hide exactly the cost group commit exists to
// amortize; the delay models a fast NVMe fsync so the sync benchmarks
// measure syncs-per-commit, not memory bandwidth.
type slowSyncFS struct {
	vfs.FS
	delay time.Duration
}

func (fs slowSyncFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f, fs.delay}, nil
}

type slowSyncFile struct {
	vfs.File
	delay time.Duration
}

func (f slowSyncFile) Sync() error {
	// Yielding wait: time.Sleep overshoots sub-millisecond durations by
	// orders of magnitude, and a pure busy-wait would pin the P on
	// single-core runners, starving the very writers that should be
	// enqueueing behind this sync. Gosched models blocking I/O: the delay
	// is precise and other goroutines run during it.
	for start := time.Now(); time.Since(start) < f.delay; {
		runtime.Gosched()
	}
	return f.File.Sync()
}

var parallelWriters = []int{1, 4, 8, 16}

// runParallelPuts splits b.N puts across the writers, each in its own key
// range, and reports syncs/op so the grouped and serialized runs can be
// compared on amortization as well as throughput.
func runParallelPuts(b *testing.B, d *DB, writers, batchSize int) {
	val := storetest.Value(1, 1)
	b.SetBytes(int64(16 + len(val)))
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		lo, hi := b.N*w/writers, b.N*(w+1)/writers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			if batchSize <= 1 {
				for i := lo; i < hi; i++ {
					if err := d.Put([]byte(fmt.Sprintf("w%02d-k%012d", w, i)), val); err != nil {
						b.Error(err)
						return
					}
				}
				return
			}
			batch := NewBatch()
			for i := lo; i < hi; i++ {
				batch.Put([]byte(fmt.Sprintf("w%02d-k%012d", w, i)), val)
				if batch.Len() == batchSize {
					if err := d.Apply(batch); err != nil {
						b.Error(err)
						return
					}
					batch.Reset()
				}
			}
			if batch.Len() > 0 {
				if err := d.Apply(batch); err != nil {
					b.Error(err)
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	b.StopTimer()
	if n := d.stats.WALAppends.Get(); n > 0 {
		b.ReportMetric(float64(d.stats.WALSyncs.Get())/float64(n), "syncs/op")
	}
}

func BenchmarkPutParallel(b *testing.B) {
	for _, writers := range parallelWriters {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			d := benchDB(b, func(o *Options) { o.DisableAutoMaintenance = false })
			runParallelPuts(b, d, writers, 1)
		})
	}
}

func BenchmarkPutSyncParallel(b *testing.B) {
	for _, writers := range parallelWriters {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			d := benchDB(b, func(o *Options) {
				o.DisableAutoMaintenance = false
				o.SyncWrites = true
				o.FS = slowSyncFS{vfs.NewMemFS(), 25 * time.Microsecond}
			})
			runParallelPuts(b, d, writers, 1)
		})
	}
}

func BenchmarkBatchPutParallel(b *testing.B) {
	for _, writers := range parallelWriters {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			d := benchDB(b, func(o *Options) { o.DisableAutoMaintenance = false })
			runParallelPuts(b, d, writers, 64)
		})
	}
}

func BenchmarkDeleteAndPersist(b *testing.B) {
	clk := &base.LogicalClock{}
	d := benchDB(b, func(o *Options) {
		o.Clock = clk
		o.Compaction.DPT = 10_000
		o.Compaction.Picker = compaction.PickFADE
	})
	for i := 0; i < 50_000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%014d", i)), storetest.Value(uint64(i), i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.CompactAll(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(1)
		if err := d.Delete([]byte(fmt.Sprintf("k%014d", i%50_000))); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			clk.Advance(2000)
			if err := d.WaitIdle(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEagerRangeDelete times the KiWi eager erase, the one maintenance
// path no end-to-end workload exercises: a tombstone-free L1 file and a
// tombstone-free L0 file (disjoint keys, h = 4 pages a tile, delete keys
// scattered over the key order), both half covered by one secondary range
// delete, from issuing the delete until maintenance is idle again.
func BenchmarkEagerRangeDelete(b *testing.B) {
	const perFile = 5000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := benchDB(b, func(o *Options) {
			o.PagesPerTile = 4
			o.EagerRangeDeletes = true
		})
		// Four disjoint flushes reach the L0 threshold and merge into one
		// L1 file; the fifth stays in L0.
		const n = 5 * perFile
		for k := 0; k < n; k++ {
			if err := d.Put([]byte(fmt.Sprintf("k%014d", k)), storetest.Value(uint64(k*7919%n), k)); err != nil {
				b.Fatal(err)
			}
			if k%perFile == perFile-1 {
				if err := d.Flush(); err != nil {
					b.Fatal(err)
				}
				if err := d.WaitIdle(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if lv := d.Levels(); lv[0].Files != 1 || lv[1].Files != 1 {
			b.Fatalf("fixture: want one file in L0 and one in L1, got %+v", lv[:2])
		}
		b.StartTimer()
		if err := d.DeleteSecondaryRange(0, n/2); err != nil {
			b.Fatal(err)
		}
		if err := d.WaitIdle(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := d.Stats(); st.PagesDropped.Get() == 0 || st.RangeCoveredDropped.Get() == 0 {
			b.Fatalf("nothing erased: pages_dropped=%d range_covered_dropped=%d", st.PagesDropped.Get(), st.RangeCoveredDropped.Get())
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlush prices the sstable writer's other caller per entry, beside
// compaction's BenchmarkCompactionRun: one 4 MiB memtable (64-byte values,
// one tombstone in ten) written by writeMemTable as one level-0 table.
func BenchmarkFlush(b *testing.B) {
	for _, h := range []int{1, 4} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			d := benchDB(b, func(o *Options) { o.PagesPerTile = h })
			m := memtable.New()
			for i := 0; m.ApproximateBytes() < 4<<20; i++ {
				ik := base.MakeInternalKey([]byte(fmt.Sprintf("k%014d", i)), base.SeqNum(i+1), base.KindSet)
				value := append(storetest.Value(uint64(i*7919%50_000), i), make([]byte, 40)...)
				if i%10 == 0 {
					ik.Trailer, value = base.MakeTrailer(base.SeqNum(i+1), base.KindDelete), base.EncodeTombstoneValue(base.Timestamp(i))
				}
				m.Add(ik, value)
			}
			var written uint64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn, meta, err := d.writeMemTable(m)
				if err != nil {
					b.Fatal(err)
				}
				written = meta.Size
				b.StopTimer()
				if err := d.opts.FS.Remove(manifest.MakeFilename(d.dirname, manifest.FileTypeTable, fn)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.SetBytes(int64(written))
			per := float64(m.Len()) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/entry")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/entry")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/entry")
		})
	}
	// expired flushes a 4 MiB memtable whose tombstones have outlived level
	// 0's budget over a populated level 1, timed from Flush until WaitIdle
	// returns: whichever way the engine takes the memtable down, it ends in
	// the same tree. written-B/entry is what MemFS took in meanwhile: the
	// tables, plus a manifest edit or two.
	b.Run("expired", func(b *testing.B) {
		var entries, written int64
		var allocBytes, mallocs uint64
		var before, after runtime.MemStats
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			d, fs, n := expiredFlushDB(b)
			runtime.ReadMemStats(&before)
			w := fs.BytesWritten()
			b.StartTimer()
			if err := d.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := d.WaitIdle(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			written += fs.BytesWritten() - w
			allocBytes += after.TotalAlloc - before.TotalAlloc
			mallocs += after.Mallocs - before.Mallocs
			entries += n
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
		}
		per := float64(entries)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/entry")
		b.ReportMetric(float64(allocBytes)/per, "B/entry")
		b.ReportMetric(float64(mallocs)/per, "allocs/entry")
		b.ReportMetric(float64(written)/per, "written-B/entry")
	})
}

// expiredFlushDB returns a store with about 2 MiB in level 1 and a
// mutable memtable of about 4 MiB — puts over level 1's keys and beside
// them, one entry in ten a delete — whose tombstones are past the DPT, all
// of it level 0's budget in a one-level tree. n is the memtable's entries.
func expiredFlushDB(b testing.TB) (_ *DB, _ *vfs.MemFS, n int64) {
	b.Helper()
	fs := vfs.NewMemFS()
	clk := &base.LogicalClock{}
	d, err := Open("bench", Options{
		FS:                     fs,
		Clock:                  clk,
		MemTableBytes:          8 << 20,
		DeleteKeyFunc:          storetest.DeleteKey,
		DisableAutoMaintenance: true,
		Compaction: compaction.Options{
			Picker:          compaction.PickFADE,
			DPT:             1000,
			SizeRatio:       10,
			L0Threshold:     1,
			BaseLevelBytes:  8 << 20,
			TargetFileBytes: 2 << 20,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	value := func(i int) []byte { return append(storetest.Value(uint64(i), i), make([]byte, 40)...) }
	for i := 0; i < 20_000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%014d", 3*i)), value(i)); err != nil {
			b.Fatal(err)
		}
	}
	// One level-0 run is over the threshold: it moves into level 1.
	if err := d.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := d.WaitIdle(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 28_000; i++ {
		k := []byte(fmt.Sprintf("k%014d", 2*i))
		if i%10 == 0 {
			err = d.Delete(k)
		} else {
			err = d.Put(k, value(i))
		}
		if err != nil {
			b.Fatal(err)
		}
		n++
	}
	clk.Advance(2000)
	return d, fs, n
}
