package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/manifest"
	"repro/internal/storetest"
	"repro/internal/vfs"
)

// kiwiOptions returns a KiWi-enabled configuration.
func kiwiOptions(fs vfs.FS, clk base.Clock, eager bool) Options {
	opts := testOptions(fs, clk)
	opts.PagesPerTile = 4
	opts.EagerRangeDeletes = eager
	opts.Compaction.Picker = compaction.PickFADE
	opts.Compaction.DPT = 2000
	return opts
}

// TestRangeDeleteKeySemantics pins the read-path contract: a key whose
// NEWEST version's delete key is covered reads as absent, even when an
// older version's delete key lies outside the tombstone's range — older
// versions never "show through".
func TestRangeDeleteKeySemantics(t *testing.T) {
	for _, eager := range []bool{false, true} {
		t.Run(fmt.Sprintf("eager=%v", eager), func(t *testing.T) {
			clk := &base.LogicalClock{}
			d := mustOpen(t, kiwiOptions(vfs.NewMemFS(), clk, eager))

			// v1 has dk=500 (outside), v2 has dk=50 (inside).
			if err := d.Put([]byte("k"), storetest.Value(500, 1)); err != nil {
				t.Fatal(err)
			}
			if err := d.Put([]byte("k"), storetest.Value(50, 2)); err != nil {
				t.Fatal(err)
			}
			// Also a key whose newest version is outside the range.
			if err := d.Put([]byte("other"), storetest.Value(900, 3)); err != nil {
				t.Fatal(err)
			}
			if err := d.DeleteSecondaryRange(0, 100); err != nil {
				t.Fatal(err)
			}

			check := func(stage string) {
				t.Helper()
				if _, err := d.Get([]byte("k")); err != ErrNotFound {
					t.Fatalf("%s: covered newest version should hide the key, got %v", stage, err)
				}
				if _, err := d.Get([]byte("other")); err != nil {
					t.Fatalf("%s: uncovered key lost: %v", stage, err)
				}
				it, err := d.NewIter(IterOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer it.Close()
				for ok := it.First(); ok; ok = it.Next() {
					if string(it.Key()) == "k" {
						t.Fatalf("%s: iterator resurrected covered key", stage)
					}
				}
			}
			check("in memtable")
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			check("flushed")
			clk.Advance(5000)
			if err := d.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			check("after ttl maintenance")
			if err := d.CompactAll(); err != nil {
				t.Fatal(err)
			}
			check("fully compacted")
		})
	}
}

// TestRangeDeleteSeqOrderMatters: a version written AFTER the range delete
// is visible even when its delete key is in the deleted range.
func TestRangeDeleteSeqOrderMatters(t *testing.T) {
	clk := &base.LogicalClock{}
	d := mustOpen(t, kiwiOptions(vfs.NewMemFS(), clk, false))
	if err := d.Put([]byte("k"), storetest.Value(50, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteSecondaryRange(0, 100); err != nil {
		t.Fatal(err)
	}
	// Re-insert with a covered delete key AFTER the tombstone: visible.
	if err := d.Put([]byte("k"), storetest.Value(60, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get([]byte("k")); err != nil {
		t.Fatalf("post-tombstone write hidden: %v", err)
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get([]byte("k")); err != nil {
		t.Fatalf("post-tombstone write lost in compaction: %v", err)
	}
}

// TestEagerDeferredEquivalence runs the same random workload with eager
// and deferred range-delete reclamation; the logical contents must match
// at every checkpoint and at the end.
func TestEagerDeferredEquivalence(t *testing.T) {
	type run struct {
		d   *DB
		clk *base.LogicalClock
	}
	var runs []run
	for _, eager := range []bool{false, true} {
		clk := &base.LogicalClock{}
		d := mustOpen(t, kiwiOptions(vfs.NewMemFS(), clk, eager))
		runs = append(runs, run{d, clk})
	}
	rng := rand.New(rand.NewSource(77))
	var tick uint64
	apply := func(f func(r run) error) {
		t.Helper()
		for _, r := range runs {
			if err := f(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	compare := func(stage string) {
		t.Helper()
		var contents [2][]string
		for ri, r := range runs {
			it, err := r.d.NewIter(IterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for ok := it.First(); ok; ok = it.Next() {
				contents[ri] = append(contents[ri],
					fmt.Sprintf("%s=%d", it.Key(), storetest.DeleteKey(it.Value())))
			}
			it.Close()
		}
		if len(contents[0]) != len(contents[1]) {
			t.Fatalf("%s: deferred has %d keys, eager %d", stage, len(contents[0]), len(contents[1]))
		}
		for i := range contents[0] {
			if contents[0][i] != contents[1][i] {
				t.Fatalf("%s: divergence at %d: %q vs %q", stage, i, contents[0][i], contents[1][i])
			}
		}
	}
	for i := 0; i < 4000; i++ {
		switch r := rng.Float64(); {
		case r < 0.70:
			tick++
			k := fmt.Sprintf("k%05d", rng.Intn(1500))
			v := storetest.Value(tick, i)
			apply(func(r run) error { r.clk.Advance(1); return r.d.Put([]byte(k), v) })
		case r < 0.78:
			k := fmt.Sprintf("k%05d", rng.Intn(1500))
			apply(func(r run) error { r.clk.Advance(1); return r.d.Delete([]byte(k)) })
		case r < 0.81 && tick > 20:
			lo := uint64(rng.Intn(int(tick)))
			hi := lo + uint64(rng.Intn(int(tick)/4)+1)
			apply(func(r run) error { r.clk.Advance(1); return r.d.DeleteSecondaryRange(lo, hi) })
		default:
			apply(func(r run) error { r.clk.Advance(1); return nil })
		}
		if i%128 == 127 {
			apply(func(r run) error { return r.d.WaitIdle() })
		}
		if i%1000 == 999 {
			compare(fmt.Sprintf("op %d", i))
		}
	}
	apply(func(r run) error {
		if err := r.d.Flush(); err != nil {
			return err
		}
		r.clk.Advance(5000)
		if err := r.d.WaitIdle(); err != nil {
			return err
		}
		return r.d.CompactAll()
	})
	compare("final")
	// The eager engine must actually have reclaimed something.
	eagerStats := runs[1].d.Stats()
	if eagerStats.RangeCoveredDropped.Get() == 0 && eagerStats.PagesDropped.Get() == 0 {
		t.Log("note: eager run reclaimed nothing (workload-dependent)")
	}
}

// TestRangeTombstoneRetirementRequiresGlobalInertness: a tombstone must not
// be counted persisted while covered entries live in files outside the
// compaction that would dispose of it.
func TestRangeTombstoneRetirementRequiresGlobalInertness(t *testing.T) {
	clk := &base.LogicalClock{}
	d := mustOpen(t, kiwiOptions(vfs.NewMemFS(), clk, false))

	// Two widely separated key regions in separate files after compaction.
	for i := 0; i < 1000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("a%05d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
		if err := d.Put([]byte(fmt.Sprintf("z%05d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteSecondaryRange(0, 500); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10_000)
	if err := d.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	// Whatever maintenance did, reads must stay correct...
	if _, err := d.Get([]byte("a00100")); err != ErrNotFound {
		t.Fatalf("covered key visible: %v", err)
	}
	if _, err := d.Get([]byte("a00700")); err != nil {
		t.Fatalf("uncovered key lost: %v", err)
	}
	// ...and if the tombstone was retired, nothing coverable may remain.
	if d.Stats().RangeTombstonesPersisted.Get() > 0 {
		it, err := d.NewIter(IterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		for ok := it.First(); ok; ok = it.Next() {
			if dk := storetest.DeleteKey(it.Value()); dk < 500 {
				t.Fatalf("tombstone retired while covered entry %q (dk=%d) remains", it.Key(), dk)
			}
		}
	}
}

// TestVersionCarriesLiveRangeTombstones: at every stage of a file's life —
// flushed, merged, recovered from the manifest, copied into a checkpoint —
// the version's range-tombstone list is exactly what its live tables hold,
// and reads through it agree with the model.
func TestVersionCarriesLiveRangeTombstones(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := kiwiOptions(fs, &base.LogicalClock{}, false)
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	m := storetest.NewModel()
	put := func(lo, hi, tag int) {
		for i := lo; i < hi; i++ {
			k, v := fmt.Sprintf("k%05d", i), storetest.Value(uint64(i), tag)
			if err := d.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			m.Put(k, v)
		}
	}
	rangeDelete := func(lo, hi base.DeleteKey) {
		if err := d.DeleteSecondaryRange(lo, hi); err != nil {
			t.Fatal(err)
		}
		m.DeleteRange(lo, hi)
	}
	put(0, 3000, 0)
	rangeDelete(100, 400)
	put(300, 500, 1) // re-inserted after the tombstone: visible
	rangeDelete(1000, 1200)

	check := func(stage string, d *DB) {
		t.Helper()
		v := d.vs.Current()
		var want []base.RangeTombstone
		v.AllFiles(func(_ int, f *manifest.FileMetadata) {
			r, err := d.cache.get(f.FileNum)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			want = append(want, r.RangeTombstones()...)
		})
		got := append([]base.RangeTombstone(nil), v.RangeTombstones()...)
		for _, rts := range [][]base.RangeTombstone{got, want} {
			sort.Slice(rts, func(i, j int) bool { return rts[i].Seq < rts[j].Seq })
		}
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: version lists %v, live tables hold %v", stage, got, want)
		}
		if diff := storetest.Diff(target(d), m); diff != "" {
			t.Fatalf("%s: %s", stage, diff)
		}
		for i := 0; i < 3000; i += 7 {
			k := fmt.Sprintf("k%05d", i)
			v, err := d.Get([]byte(k))
			if want, ok := m.Data[k]; ok != (err == nil) || !bytes.Equal(v, want) {
				t.Fatalf("%s: get %s = %x, %v; model has %x", stage, k, v, err, want)
			}
		}
	}

	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flushed", d)
	// An open snapshot keeps the merge from retiring the tombstones.
	snap := d.NewSnapshot()
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	snap.Release()
	check("compacted", d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = Open("db", opts); err != nil {
		t.Fatal(err)
	}
	check("reopened", d)
	if err := d.Checkpoint("ckpt"); err != nil {
		t.Fatal(err)
	}
	cp, err := Open("ckpt", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	check("checkpoint reopened", cp)
}

// raceEnabled reports whether the test binary runs under the race detector,
// whose sync.Pool drops items at random, so allocation counts vary.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestGetAllocsFlatInRangeTombstones: a Get hit with DeleteKeyFunc set
// allocates the same whether no range tombstone is live, a hundred sit in
// the version's files, or a hundred sit in the memtable — the coverage check
// walks the published lists in place. The hit is served from a cached table
// block and allocates only the value's one copy: the ceiling is 3, where the
// engine that opened a table iterator per probe made 12, and the one that
// collected tombstones per Get and copied the value twice 13 / 21 / 22.
func TestGetAllocsFlatInRangeTombstones(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const keys = 500
	fixture := func(inFiles, inMem int) *DB {
		d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
		for i := 0; i < keys; i++ {
			if err := d.Put([]byte(fmt.Sprintf("key%05d", i)), storetest.Value(uint64(i), i)); err != nil {
				t.Fatal(err)
			}
		}
		// Tombstones over delete keys no entry carries: live, covering nothing.
		addRTs := func(n int) {
			for i := 0; i < n; i++ {
				lo := base.DeleteKey(1_000_000 + 10*i)
				if err := d.DeleteSecondaryRange(lo, lo+5); err != nil {
					t.Fatal(err)
				}
			}
		}
		addRTs(inFiles)
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		addRTs(inMem)
		if f, m := len(d.vs.Current().RangeTombstones()), d.mem.NumRangeDeletes(); f != inFiles || m != inMem {
			t.Fatalf("fixture holds %d range tombstones in files and %d in the memtable, want %d and %d", f, m, inFiles, inMem)
		}
		return d
	}
	allocs := func(d *DB) float64 {
		key := []byte(fmt.Sprintf("key%05d", keys/2))
		return testing.AllocsPerRun(200, func() {
			if _, err := d.Get(key); err != nil {
				t.Fatal(err)
			}
		})
	}
	none := allocs(fixture(0, 0))
	files := allocs(fixture(100, 0))
	mem := allocs(fixture(0, 100))
	if none != files || none != mem || none > 3 {
		t.Fatalf("Get-hit allocs: %v with no range tombstones, %v with 100 in files, %v with 100 in the memtable; want all equal and <= 3", none, files, mem)
	}
}

// TestMemTableRangeTombstonesConcurrent: range deletes land in the memtable's
// copy-on-write list while readers walk that list and run Gets and scans
// against it. A range delete that has returned is never missed, a key outside
// every range never disappears, and the race detector stays quiet.
func TestMemTableRangeTombstonesConcurrent(t *testing.T) {
	const (
		keys      = 600 // delete key of key i is i
		deletable = 400 // range deletes advance over [0, deletable)
	)
	d := mustOpen(t, kiwiOptions(vfs.NewMemFS(), &base.LogicalClock{}, false))
	for i := 0; i < keys; i++ {
		if err := d.Put([]byte(fmt.Sprintf("key%05d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
		if i == keys/2 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}

	var deleted atomic.Int64 // every key below it has been range-deleted
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				floor := int(deleted.Load())

				d.mu.Lock()
				mem := d.mem
				d.mu.Unlock()
				for _, rt := range mem.RangeTombstones() {
					if rt.Lo != 0 || rt.Hi == 0 || rt.Hi > deletable {
						t.Errorf("torn range tombstone %+v", rt)
						return
					}
				}

				i := rng.Intn(keys)
				_, err := d.Get([]byte(fmt.Sprintf("key%05d", i)))
				if i < floor && err != ErrNotFound {
					t.Errorf("Get(key%05d) = %v after range delete [0, %d) returned", i, err, floor)
					return
				}
				if i >= deletable && err != nil {
					t.Errorf("Get(key%05d) outside every range: %v", i, err)
					return
				}

				it, err := d.NewIter(IterOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				kept := 0
				for ok := it.First(); ok; ok = it.Next() {
					dk := int(storetest.DeleteKey(it.Value()))
					if dk < floor {
						t.Errorf("scan returned key%05d after range delete [0, %d) returned", dk, floor)
					}
					if dk >= deletable {
						kept++
					}
				}
				if err := it.Close(); err != nil {
					t.Error(err)
				}
				if kept != keys-deletable {
					t.Errorf("scan saw %d of %d keys outside every range", kept, keys-deletable)
					return
				}
			}
		}(r)
	}
	for hi := 2; hi <= deletable; hi += 2 {
		if err := d.DeleteSecondaryRange(0, base.DeleteKey(hi)); err != nil {
			t.Fatal(err)
		}
		deleted.Store(int64(hi))
		if hi%100 == 0 { // rotate the memtable under the readers
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
}

// eagerFixture opens an eager (or deferred) KiWi store that flushes only by
// hand, so a test decides what each table holds.
func eagerFixture(t *testing.T, fs vfs.FS, eager bool, tweak func(*Options)) (*DB, Options) {
	t.Helper()
	opts := kiwiOptions(fs, &base.LogicalClock{}, eager)
	opts.MemTableBytes = 1 << 20
	if tweak != nil {
		tweak(&opts)
	}
	return mustOpen(t, opts), opts
}

// putFlush writes keys prefix+[lo, hi) with delete key dk(i) and flushes them
// into one level-0 table.
func putFlush(t *testing.T, d *DB, prefix string, lo, hi, tag int, dk func(i int) uint64) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := d.Put([]byte(fmt.Sprintf("%s%05d", prefix, i)), storetest.Value(dk(i), tag)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
}

func identityDK(i int) uint64 { return uint64(i) }

// scanAll returns the store's logical contents as "key=value" strings.
func scanAll(t *testing.T, d *DB) []string {
	t.Helper()
	it, err := d.NewIter(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	keys, values := collectScan(t, it)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s=%x", keys[i], values[i])
	}
	return keys
}

func runFileNums(r *manifest.Run) []base.FileNum {
	var out []base.FileNum
	for _, f := range r.Files {
		out = append(out, f.FileNum)
	}
	return out
}

// TestEagerInPlaceCandidate pins the shapes the eager erase takes now that it
// is a compaction candidate with StartLevel == OutputLevel run by
// compaction.Run.
func TestEagerInPlaceCandidate(t *testing.T) {
	rangeDeleteJobs := func(d *DB) int64 {
		return d.Stats().CompactionsByTrigger[compaction.TriggerRangeDelete].Get()
	}

	// A tiered level with two overlapping runs: the older run's files have
	// nothing older below or beside them and are rewritten; the newer run's
	// files sit on top of the older run's versions and must be left alone
	// (dropping their covered entries would let the older versions show).
	t.Run("older run rewritten, newer run refused", func(t *testing.T) {
		const keys = 600
		d, _ := eagerFixture(t, vfs.NewMemFS(), true, func(o *Options) {
			o.Compaction.Policy = compaction.PolicySizeTiered
			o.Compaction.DPT = 0
		})
		for tag := 0; tag < 4; tag++ { // two L0 runs merge into one L1 run, twice
			putFlush(t, d, "k", 0, keys, tag, identityDK)
			if err := d.WaitIdle(); err != nil {
				t.Fatal(err)
			}
		}
		before := d.vs.Current()
		if len(before.Levels[0]) != 0 || len(before.Levels[1]) != 2 {
			t.Fatalf("fixture: want an empty L0 and two runs in L1, got %+v", d.Levels())
		}
		if err := d.DeleteSecondaryRange(0, keys/2); err != nil {
			t.Fatal(err)
		}
		if err := d.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		after := d.vs.Current()
		if len(after.Levels[1]) != 2 {
			t.Fatalf("want two runs in L1 still, got %+v", d.Levels())
		}
		newer, older := after.Levels[1][0], after.Levels[1][1] // newest first
		if got, want := runFileNums(newer), runFileNums(before.Levels[1][0]); !reflect.DeepEqual(got, want) {
			t.Fatalf("newer run was touched: files %v, were %v", got, want)
		}
		if older.ID != before.Levels[1][1].ID {
			t.Fatalf("older run changed identity: %d, was %d", older.ID, before.Levels[1][1].ID)
		}
		var left uint64
		for _, f := range older.Files {
			left += f.NumEntries
		}
		if left != keys/2 || rangeDeleteJobs(d) == 0 {
			t.Fatalf("older run holds %d entries after %d range-delete jobs, want %d", left, rangeDeleteJobs(d), keys/2)
		}
		for i := 0; i < keys; i++ {
			v, err := d.Get([]byte(fmt.Sprintf("k%05d", i)))
			if i < keys/2 && err != ErrNotFound {
				t.Fatalf("covered key %d reads back: %x, %v", i, v, err)
			}
			if i >= keys/2 && (err != nil || !bytes.Equal(v, storetest.Value(uint64(i), 3))) {
				t.Fatalf("key %d = %x, %v; want its newest version", i, v, err)
			}
		}
	})

	// compaction.Run rolls outputs at TargetFileBytes, so a level-0 table
	// larger than that comes back as several files of the same level-0 run.
	t.Run("large L0 file rewritten into several files of its run", func(t *testing.T) {
		const keys = 2000
		var scans [2][2][]string // [eager][reopened]
		for e, eager := range []bool{false, true} {
			fs := vfs.NewMemFS()
			d, opts := eagerFixture(t, fs, eager, nil)
			putFlush(t, d, "k", 0, keys, 0, identityDK)
			f := d.vs.Current().Levels[0][0].Files[0]
			if f.Size <= opts.Compaction.TargetFileBytes {
				t.Fatalf("fixture: L0 file of %d bytes does not exceed TargetFileBytes %d", f.Size, opts.Compaction.TargetFileBytes)
			}
			if err := d.DeleteSecondaryRange(0, keys/2); err != nil {
				t.Fatal(err)
			}
			if err := d.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			if eager {
				l0 := d.vs.Current().Levels[0]
				if len(l0) != 1 || len(l0[0].Files) < 2 {
					t.Fatalf("want one L0 run of several files, got %+v", d.Levels())
				}
				for i, f := range l0[0].Files {
					if i > 0 && base.Compare(l0[0].Files[i-1].Largest.UserKey, f.Smallest.UserKey) >= 0 {
						t.Fatalf("L0 run is not sorted and disjoint at file %d", i)
					}
				}
			}
			for r := range scans[e] {
				scans[e][r] = scanAll(t, d)
				for i := 0; i < keys; i += 13 {
					_, err := d.Get([]byte(fmt.Sprintf("k%05d", i)))
					if (i < keys/2) != (err == ErrNotFound) {
						t.Fatalf("eager=%v reopened=%v: get key %d: %v", eager, r == 1, i, err)
					}
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				if r == 0 {
					d = mustOpen(t, opts)
				}
			}
		}
		if len(scans[0][0]) != keys/2 || !reflect.DeepEqual(scans[0], scans[1]) {
			t.Fatalf("eager and deferred engines disagree: %d/%d keys before the reopen, %d/%d after, want %d everywhere",
				len(scans[0][0]), len(scans[1][0]), len(scans[0][1]), len(scans[1][1]), keys/2)
		}
	})

	// The file's delete-key span straddles the tombstone but no entry is in
	// it: the rewrite is discarded, nothing is installed, and the watermark
	// keeps the picker from trying again.
	t.Run("span-only intersection installs nothing", func(t *testing.T) {
		fs := vfs.NewMemFS()
		d, _ := eagerFixture(t, fs, true, nil)
		putFlush(t, d, "k", 0, 1000, 0, func(i int) uint64 { return uint64(i%500 + 2000*(i/500)) })
		before := d.vs.Current()
		if err := d.DeleteSecondaryRange(1000, 1500); err != nil {
			t.Fatal(err)
		}
		if did, err := d.MaintenanceStep(); err != nil || !did {
			t.Fatalf("the no-op rewrite should run once: did=%v err=%v", did, err)
		}
		if d.vs.Current() != before {
			t.Fatalf("a rewrite that dropped nothing installed a version: %+v", d.Levels())
		}
		assertNoOrphanTables(t, fs, d)
		if did, err := d.MaintenanceStep(); err != nil || did {
			t.Fatalf("the memoised file was picked again: did=%v err=%v", did, err)
		}
		if n := rangeDeleteJobs(d); n != 1 {
			t.Fatalf("%d range-delete jobs, want exactly the one no-op", n)
		}
		if got := scanAll(t, d); len(got) != 1000 {
			t.Fatalf("scan sees %d keys, want all 1000", len(got))
		}
	})
}

// TestEagerJobsInLedger: eager work is accounted like any other compaction.
// One range-delete round that fully covers one file, half covers another and
// only straddles a third (a discarded no-op rewrite) must leave the
// by-trigger byte counters partitioning the totals — the no-op's bytes
// included — and its jobs in the ring as in-place compactions.
func TestEagerJobsInLedger(t *testing.T) {
	d, _ := eagerFixture(t, vfs.NewMemFS(), true, func(o *Options) { o.Compaction.L0Threshold = 8 })
	putFlush(t, d, "a", 0, 1000, 0, identityDK)                                                      // half covered by [0, 500)
	putFlush(t, d, "b", 100, 400, 0, identityDK)                                                     // fully covered by [0, 500)
	putFlush(t, d, "c", 0, 800, 0, func(i int) uint64 { return uint64(600 + i%400 + 1400*(i/400)) }) // straddles [1000, 1500)
	noop := d.vs.Current().Levels[0][0].Files[0].FileNum
	for _, r := range [][2]base.DeleteKey{{0, 500}, {1000, 1500}} {
		if err := d.DeleteSecondaryRange(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	st := d.Stats()
	var read, written int64
	for tr := range st.CompactionsByTrigger {
		read += st.CompactBytesReadByTrigger[tr].Get()
		written += st.CompactBytesWrittenByTrigger[tr].Get()
	}
	if read != st.CompactBytesRead.Get() || written != st.CompactBytesWritten.Get() || written == 0 {
		t.Fatalf("by-trigger bytes do not partition the totals: read %d of %d, written %d of %d",
			read, st.CompactBytesRead.Get(), written, st.CompactBytesWritten.Get())
	}
	rd := int(compaction.TriggerRangeDelete)
	if st.CompactionsByTrigger[rd].Get() != 3 || st.JobLatencyByTrigger[rd].Count() != 3 {
		t.Fatalf("range-delete jobs counted %d, timed %d; want 3 (rewrite, drop, no-op)",
			st.CompactionsByTrigger[rd].Get(), st.JobLatencyByTrigger[rd].Count())
	}
	var rewrites, drops int
	for _, j := range d.RecentMaintJobs() {
		if j.Trigger != compaction.TriggerRangeDelete || j.Kind != JobCompact {
			continue
		}
		if j.StartLevel != j.OutputLevel || j.Err != nil {
			t.Fatalf("range-delete job is not a clean in-place compaction: %+v", j)
		}
		if j.BytesIn == 0 {
			drops++
		} else {
			rewrites++
		}
	}
	if drops != 1 || rewrites != 2 {
		t.Fatalf("ring shows %d metadata-only drops and %d rewrites, want 1 and 2", drops, rewrites)
	}
	// The three outcomes really happened: 300 + 500 entries gone, the
	// straddling file still in place under its watermark.
	if got := st.RangeCoveredDropped.Get() + st.PagesDropped.Get(); st.RangeCoveredDropped.Get() < 300 || got == 0 {
		t.Fatalf("range_covered_dropped=%d pages_dropped=%d", st.RangeCoveredDropped.Get(), st.PagesDropped.Get())
	}
	if got := scanAll(t, d); len(got) != 500+800 {
		t.Fatalf("scan sees %d keys, want %d", len(got), 500+800)
	}
	f := d.vs.Current().Levels[0][0].Files[0]
	if f.FileNum != noop || f.EagerDone.Load() == 0 {
		t.Fatalf("the straddling file %s should be untouched and memoised: %+v", noop, d.Levels())
	}
}
