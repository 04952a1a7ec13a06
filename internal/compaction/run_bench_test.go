package compaction

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/base"
	"repro/internal/manifest"
)

// BenchmarkCompactionRun prices the merge loop per input entry: a bottommost
// merge of two half-overlapping runs in which one entry in ten is a tombstone
// it disposes of, and the KiWi (h = 4) in-place rewrite of one file under 1,
// 100 and 1 000 live range tombstones that together cover a tenth of it.
func BenchmarkCompactionRun(b *testing.B) {
	const n = 20000 // entries per run
	value := func(dk int) []byte { return append(dkVal(uint64(dk)), make([]byte, 48)...) }
	// run builds a sorted run of n keys starting at first, in four files.
	run := func(e *testEnv, first int, seq base.SeqNum, tombstoneEvery int) []*manifest.FileMetadata {
		var files []*manifest.FileMetadata
		for lo := 0; lo < n; lo += n / 4 {
			var kvs []kv
			for i := lo; i < lo+n/4; i++ {
				k := kv{fmt.Sprintf("k%07d", first+i), seq + base.SeqNum(i), base.KindSet, value(i * 7919 % n)}
				if tombstoneEvery > 0 && i%tombstoneEvery == 0 {
					k.kind, k.val = base.KindDelete, base.EncodeTombstoneValue(base.Timestamp(i))
				}
				kvs = append(kvs, k)
			}
			files = append(files, e.newTable(b, kvs, nil))
		}
		return files
	}

	b.Run("merge/tombstones=10%", func(b *testing.B) {
		e := newTestEnv(1)
		older := run(e, 0, 1, 0)
		newer := run(e, n/2, n+1, 5)
		env := e.env(b)
		env.Bottommost = true
		benchRun(b, e, candidate(1, newer, older), env)
	})
	for _, live := range []int{1, 100, 1000} {
		b.Run(fmt.Sprintf("kiwi-h4/live-range-tombstones=%d", live), func(b *testing.B) {
			e := newTestEnv(4)
			files := run(e, 0, 1, 0)
			env := e.env(b)
			env.Bottommost = true
			for i := 0; i < live; i++ {
				lo := base.DeleteKey(i * n / live)
				env.LiveRangeTombstones = append(env.LiveRangeTombstones,
					base.RangeTombstone{Lo: lo, Hi: lo + base.DeleteKey(n/10/live), Seq: 2 * n, CreatedAt: 1})
			}
			benchRun(b, e, &Candidate{Trigger: TriggerRangeDelete, StartLevel: 1, OutputLevel: 1, OutputRunID: 1,
				Inputs: []*manifest.Run{{ID: 1, Files: files}}}, env)
		})
	}
}

// benchRun times Run(c, env), unlinking each iteration's outputs, and reports
// the cost per input entry next to the MB/s of input bytes.
func benchRun(b *testing.B, e *testEnv, c *Candidate, env Env) {
	var entries, bytes uint64
	for _, f := range c.ClaimFiles() {
		entries += f.NumEntries
		bytes += f.Size
	}
	b.SetBytes(int64(bytes))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(c, env)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Outputs) == 0 {
			b.Fatal("merge wrote nothing")
		}
		b.StopTimer()
		for _, of := range res.Outputs {
			if err := e.fs.Remove(manifest.MakeFilename("db", manifest.FileTypeTable, of.FileNum)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(entries) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/entry")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/entry")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/entry")
}
