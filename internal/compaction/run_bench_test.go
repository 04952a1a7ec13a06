package compaction

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/base"
	"repro/internal/cache"
	"repro/internal/manifest"
)

// BenchmarkCompactionRun prices the merge loop per input entry: a bottommost
// merge of two half-overlapping runs in which one entry in ten is a tombstone
// it disposes of — bare, and the way the engine runs it, with a block cache
// attached that holds half the input pages — and the KiWi (h = 4) in-place
// rewrite of one file under 1, 100 and 1 000 live range tombstones that
// together cover a tenth of it.
func BenchmarkCompactionRun(b *testing.B) {
	const n = benchRunEntries
	b.Run("merge/tombstones=10%", func(b *testing.B) {
		e := newTestEnv(1)
		older := benchRunFiles(b, e, 0, 1, 0)
		newer := benchRunFiles(b, e, n/2, n+1, 5)
		env := e.env(b)
		env.Bottommost = true
		benchRun(b, e, candidate(1, newer, older), env, nil)
	})
	b.Run("merge/tombstones=10%/cache=half", func(b *testing.B) {
		e := newTestEnv(1)
		older := benchRunFiles(b, e, 0, 1, 0)
		newer := benchRunFiles(b, e, n/2, n+1, 5)
		env := e.env(b)
		env.Bottommost = true
		// Every second input file is resident, read in through the read
		// path; whatever a Run leaves in the cache of the others is evicted
		// before the next, as the engine's unlink of a job's inputs does.
		blocks := cache.New(64 << 20)
		var warm, cold []*manifest.FileMetadata
		for i, f := range slices.Concat(newer, older) {
			if i%2 == 0 {
				warm = append(warm, f)
			} else {
				cold = append(cold, f)
			}
		}
		attachCache(b, env, warm, blocks, true)
		attachCache(b, env, cold, blocks, false)
		benchRun(b, e, candidate(1, newer, older), env, func() {
			for _, f := range cold {
				blocks.EvictFile(uint64(f.FileNum))
			}
		})
	})
	for _, live := range []int{1, 100, 1000} {
		b.Run(fmt.Sprintf("kiwi-h4/live-range-tombstones=%d", live), func(b *testing.B) {
			e, c, env := kiwiLiveJob(b, live)
			benchRun(b, e, c, env, nil)
		})
	}
}

// kiwiLiveJob is the KiWi (h = 4) in-place rewrite of one bottommost run of
// benchRunEntries under live range tombstones that together cover a tenth of
// its delete keys.
func kiwiLiveJob(t testing.TB, live int) (*testEnv, *Candidate, Env) {
	const n = benchRunEntries
	e := newTestEnv(4)
	files := benchRunFiles(t, e, 0, 1, 0)
	env := e.env(t)
	env.Bottommost = true
	for i := 0; i < live; i++ {
		lo := base.DeleteKey(i * n / live)
		env.LiveRangeTombstones = append(env.LiveRangeTombstones,
			base.RangeTombstone{Lo: lo, Hi: lo + base.DeleteKey(n/10/live), Seq: 2 * n, CreatedAt: 1})
	}
	return e, &Candidate{Trigger: TriggerRangeDelete, StartLevel: 1, OutputLevel: 1, OutputRunID: 1,
		Inputs: []*manifest.Run{{ID: 1, Files: files}}}, env
}

// benchRunEntries is the size of one benchRunFiles run.
const benchRunEntries = 20000

// benchRunFiles builds a sorted run of benchRunEntries keys starting at first,
// in four files: 64-byte values with scattered delete keys, every
// tombstoneEvery-th entry (if positive) a tombstone.
func benchRunFiles(t testing.TB, e *testEnv, first int, seq base.SeqNum, tombstoneEvery int) []*manifest.FileMetadata {
	const n = benchRunEntries
	var files []*manifest.FileMetadata
	for lo := 0; lo < n; lo += n / 4 {
		var kvs []kv
		for i := lo; i < lo+n/4; i++ {
			k := kv{fmt.Sprintf("k%07d", first+i), seq + base.SeqNum(i), base.KindSet, append(dkVal(uint64(i*7919%n)), make([]byte, 48)...)}
			if tombstoneEvery > 0 && i%tombstoneEvery == 0 {
				k.kind, k.val = base.KindDelete, base.EncodeTombstoneValue(base.Timestamp(i))
			}
			kvs = append(kvs, k)
		}
		files = append(files, e.newTable(t, kvs, nil))
	}
	return files
}

// benchRun times Run(c, env), unlinking each iteration's outputs (and calling
// afterEach, if set) off the clock, and reports the cost per input entry next
// to the MB/s of input bytes, with the two stage waits per entry: a job bound
// by its writer goroutine shows merge-wait, one bound by its merge
// writer-wait.
func benchRun(b *testing.B, e *testEnv, c *Candidate, env Env, afterEach func()) {
	var entries, bytes uint64
	var mergeWait, writerWait time.Duration
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
		mergeWait += res.MergeWait
		writerWait += res.WriterWait
		for _, of := range res.Outputs {
			if err := e.fs.Remove(manifest.MakeFilename("db", manifest.FileTypeTable, of.FileNum)); err != nil {
				b.Fatal(err)
			}
		}
		if afterEach != nil {
			afterEach()
		}
		b.StartTimer()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(entries) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/entry")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/entry")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/entry")
	b.ReportMetric(float64(mergeWait.Nanoseconds())/per, "merge-wait-ns/entry")
	b.ReportMetric(float64(writerWait.Nanoseconds())/per, "writer-wait-ns/entry")
}
