package compaction

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/base"
	"repro/internal/cache"
	"repro/internal/manifest"
	"repro/internal/sstable"
)

// bottomEnv is the golden fixture's "bottom" merge: every disposal path on.
func bottomEnv(t testing.TB, e *testEnv) Env {
	env := e.env(t)
	env.TargetFileBytes = 24 << 10
	env.Bottommost = true
	env.RangeTombstoneDisposable = func(rt base.RangeTombstone) bool { return rt.CreatedAt == 7 }
	env.LiveRangeTombstones = []base.RangeTombstone{{Lo: 1500, Hi: 1560, Seq: 9500, CreatedAt: 11}}
	return env
}

// attachCache gives every input file's reader the block cache c; warm reads
// the file through the read path first, which fills it.
func attachCache(t testing.TB, env Env, files []*manifest.FileMetadata, c *cache.Cache, warm bool) []*sstable.Reader {
	t.Helper()
	var readers []*sstable.Reader
	for _, f := range files {
		r, err := env.OpenReader(f.FileNum)
		if err != nil {
			t.Fatal(err)
		}
		r.SetCache(c, uint64(f.FileNum))
		if warm {
			it := r.NewIter()
			for ok := it.First(); ok; ok = it.Next() {
			}
			if err := it.Error(); err != nil {
				t.Fatal(err)
			}
		}
		readers = append(readers, r)
	}
	return readers
}

// TestRunBytesIndependentOfBlockCache: whether an input page came out of the
// job's own recycled buffer or out of a shared cached block, Run writes the
// same bytes — the golden ones.
func TestRunBytesIndependentOfBlockCache(t *testing.T) {
	for _, h := range []int{1, 4} {
		e, newer, older := goldenFixture(t, h)
		env := bottomEnv(t, e)
		inputs := slices.Concat(newer, older)
		want := goldenTables[fmt.Sprintf("h=%d/bottom", h)]
		for _, c := range []struct {
			name  string
			cache *cache.Cache
			warm  bool
		}{
			{"no cache", nil, false},
			{"11 KiB cache, cold", cache.New(16 * 700), false},
			{"11 KiB cache, churned by reads", cache.New(16 * 700), true},
			{"every block resident", cache.New(64 << 20), true},
		} {
			attachCache(t, env, inputs, c.cache, c.warm)
			res, err := Run(candidate(1, newer, older), env)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, of := range res.Outputs {
				got = append(got, e.hashTable(t, of.FileNum))
			}
			if !slices.Equal(got, want) {
				t.Errorf("h=%d, %s: outputs hash to %v, want %v", h, c.name, got, want)
			}
		}
	}
}

// TestRunBesideReaders runs merges over input files whose Readers are serving
// Gets and scans from other goroutines through one small shared cache, so the
// job meets hits, misses and blocks evicted under it, and its released
// buffers go to the readers' misses and theirs to the job. What a reader
// reads must be what the file holds while its pin lasts, a value Get returned
// must not change afterwards, and (under -race) nothing a pin covers may be
// written.
func TestRunBesideReaders(t *testing.T) {
	e, newer, older := goldenFixture(t, 4)
	env := bottomEnv(t, e)
	inputs := slices.Concat(newer, older)
	readers := attachCache(t, env, inputs, cache.New(48<<10), false)
	type kvPair struct {
		key base.InternalKey
		val []byte
	}
	contents := make([][]kvPair, len(readers))
	for i, r := range readers {
		it := r.NewIter()
		for ok := it.First(); ok; ok = it.Next() {
			contents[i] = append(contents[i], kvPair{it.Key().Clone(), bytes.Clone(it.Value())})
		}
	}

	done := make(chan struct{})
	var rounds atomic.Int64
	var wg sync.WaitGroup
	// Stop the readers however the test ends: left running past a failure
	// they would keep allocating under the package's later tests.
	defer func() {
		close(done)
		wg.Wait()
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-done:
					return
				default:
				}
				rounds.Add(1)
				i := (g + round) % len(readers)
				r, want := readers[i], contents[i]
				if round%2 == 0 {
					n := 0
					it := r.NewIter()
					for ok := it.First(); ok; ok = it.Next() {
						if n >= len(want) || !bytes.Equal(it.Value(), want[n].val) {
							break
						}
						n++
					}
					it.Close()
					if err := it.Error(); err != nil || n != len(want) {
						t.Errorf("scan of input %d: %d of %d entries read back, err %v", i, n, len(want), err)
						return
					}
					continue
				}
				var held [][]byte
				for k := g; k < len(want); k += 7 {
					_, v, _, found, err := r.Get(want[k].key.UserKey, want[k].key.SeqNum())
					if err != nil || !found || !bytes.Equal(v, want[k].val) {
						t.Errorf("Get(%s) on input %d: found=%v err=%v", want[k].key, i, found, err)
						return
					}
					held = append(held, v)
				}
				for n, v := range held {
					if k := g + 7*n; !bytes.Equal(v, want[k].val) {
						t.Errorf("input %d entry %d: a value Get returned changed", i, k)
						return
					}
				}
			}
		}(g)
	}
	want := goldenTables["h=4/bottom"]
	for i := 0; (i < 6 || rounds.Load() < 60) && !t.Failed(); i++ {
		res, err := Run(candidate(1, newer, older), env)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, of := range res.Outputs {
			got = append(got, e.hashTable(t, of.FileNum))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("run %d beside readers: outputs hash to %v, want %v", i, got, want)
		}
	}
}

// TestRunLeavesBlockCacheAlone: a job's one pass over files it is about to
// unlink inserts none of their blocks and evicts none of anybody else's.
func TestRunLeavesBlockCacheAlone(t *testing.T) {
	e, newer, older := goldenFixture(t, 1)
	env := bottomEnv(t, e)
	// The newer run plays the hot file set C, resident through reads; the
	// job merges the older run (files A, B, ...) into itself.
	blocks := cache.New(1 << 20)
	hot := attachCache(t, env, newer, blocks, true)
	attachCache(t, env, older, blocks, false)
	resident, evictions := blocks.Bytes(), blocks.Evictions()
	if resident == 0 || resident > 1<<19 {
		t.Fatalf("fixture: %d bytes resident, want the hot set to fit with room to spare", resident)
	}
	res, err := Run(&Candidate{StartLevel: 1, OutputLevel: 1, OutputRunID: 1, Inputs: []*manifest.Run{{ID: 1, Files: older}}}, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesRead == 0 || len(res.Outputs) == 0 {
		t.Fatalf("the job read %d bytes and wrote %d tables", res.BytesRead, len(res.Outputs))
	}
	if got := blocks.Bytes(); got != resident {
		t.Fatalf("cache holds %d bytes after the job, %d before: the job inserted blocks of its inputs", got, resident)
	}
	if got := blocks.Evictions(); got != evictions {
		t.Fatalf("the job evicted %d blocks", got-evictions)
	}
	misses := blocks.Misses()
	for _, r := range hot {
		it := r.NewIter()
		for ok := it.First(); ok; ok = it.Next() {
		}
	}
	if got := blocks.Misses(); got != misses {
		t.Fatalf("%d blocks of the hot files were no longer resident after the job", got-misses)
	}
}

// TestRunAllocCeiling fails the build on the next per-entry allocation in the
// merge path: BenchmarkCompactionRun's 20 000-entries-a-side bottommost merge
// — iterators, merge heap, Run, output writer, sstable and block writers,
// MemFS included — must stay under one allocation per ten input entries (it
// allocates per page and per file: about 0.015 an entry; it was 2.24 when Add
// cloned each entry). Its KiWi rewrite under 1 000 live range tombstones
// (about 0.016 an entry) stays under one per forty: the job's skyline is
// built once from a handful of slices, and a build allocating per tombstone
// would add 0.05.
func TestRunAllocCeiling(t *testing.T) {
	const n = benchRunEntries
	for _, tc := range []struct {
		name    string
		ceiling float64
		job     func() (*testEnv, *Candidate, Env)
	}{
		{"merge", 0.1, func() (*testEnv, *Candidate, Env) {
			e := newTestEnv(1)
			older, newer := benchRunFiles(t, e, 0, 1, 0), benchRunFiles(t, e, n/2, n+1, 5)
			env := e.env(t)
			env.Bottommost = true
			return e, candidate(1, newer, older), env
		}},
		{"kiwi-h4/live-range-tombstones=1000", 0.025, func() (*testEnv, *Candidate, Env) { return kiwiLiveJob(t, 1000) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, c, env := tc.job()
			var entries uint64
			for _, f := range c.ClaimFiles() {
				entries += f.NumEntries
			}
			allocs := testing.AllocsPerRun(3, func() {
				res, err := Run(c, env)
				if err != nil {
					t.Fatal(err)
				}
				for _, of := range res.Outputs {
					if err := e.fs.Remove(manifest.MakeFilename("db", manifest.FileTypeTable, of.FileNum)); err != nil {
						t.Fatal(err)
					}
				}
			})
			if perEntry := allocs / float64(entries); perEntry > tc.ceiling {
				t.Fatalf("Run allocated %.0f objects over %d input entries: %.3f an entry, ceiling %g", allocs, entries, perEntry, tc.ceiling)
			}
		})
	}
}
