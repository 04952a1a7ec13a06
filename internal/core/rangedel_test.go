package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/manifest"
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
			if err := d.Put([]byte("k"), testValue(500, 1)); err != nil {
				t.Fatal(err)
			}
			if err := d.Put([]byte("k"), testValue(50, 2)); err != nil {
				t.Fatal(err)
			}
			// Also a key whose newest version is outside the range.
			if err := d.Put([]byte("other"), testValue(900, 3)); err != nil {
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
	if err := d.Put([]byte("k"), testValue(50, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteSecondaryRange(0, 100); err != nil {
		t.Fatal(err)
	}
	// Re-insert with a covered delete key AFTER the tombstone: visible.
	if err := d.Put([]byte("k"), testValue(60, 2)); err != nil {
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
					fmt.Sprintf("%s=%d", it.Key(), testDK(it.Value())))
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
			v := testValue(tick, i)
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
		if err := d.Put([]byte(fmt.Sprintf("a%05d", i)), testValue(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
		if err := d.Put([]byte(fmt.Sprintf("z%05d", i)), testValue(uint64(i), i)); err != nil {
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
			if dk := testDK(it.Value()); dk < 500 {
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
	m := newModel()
	put := func(lo, hi, tag int) {
		for i := lo; i < hi; i++ {
			k, v := fmt.Sprintf("k%05d", i), testValue(uint64(i), tag)
			if err := d.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			m.put(k, v)
		}
	}
	rangeDelete := func(lo, hi base.DeleteKey) {
		if err := d.DeleteSecondaryRange(lo, hi); err != nil {
			t.Fatal(err)
		}
		m.rangeDelete(lo, hi)
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
			r, release, err := d.cache.get(f.FileNum)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			want = append(want, r.RangeTombstones()...)
			release()
		})
		got := append([]base.RangeTombstone(nil), v.RangeTombstones()...)
		for _, rts := range [][]base.RangeTombstone{got, want} {
			sort.Slice(rts, func(i, j int) bool { return rts[i].Seq < rts[j].Seq })
		}
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: version lists %v, live tables hold %v", stage, got, want)
		}
		it, err := d.NewIter(IterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		keys := m.sortedKeys()
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			if n >= len(keys) || string(it.Key()) != keys[n] || !bytes.Equal(it.Value(), m.data[keys[n]]) {
				t.Fatalf("%s: scan position %d is %s, model disagrees", stage, n, it.Key())
			}
			n++
		}
		if n != len(keys) {
			t.Fatalf("%s: scan saw %d keys, model has %d", stage, n, len(keys))
		}
		for i := 0; i < 3000; i += 7 {
			k := fmt.Sprintf("k%05d", i)
			v, err := d.Get([]byte(k))
			if want, ok := m.data[k]; ok != (err == nil) || !bytes.Equal(v, want) {
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

// TestGetAllocsFlatInRangeTombstones: a Get hit with DeleteKeyFunc set
// allocates the same whether no range tombstone is live, a hundred sit in
// the version's files, or a hundred sit in the memtable — the coverage check
// walks the published lists in place. The hit is served from a table, so it
// also pins the single value copy: 12 allocations, where the engine that
// collected tombstones per Get and copied the value twice made 13 / 21 / 22.
func TestGetAllocsFlatInRangeTombstones(t *testing.T) {
	const keys = 500
	fixture := func(inFiles, inMem int) *DB {
		d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
		for i := 0; i < keys; i++ {
			if err := d.Put([]byte(fmt.Sprintf("key%05d", i)), testValue(uint64(i), i)); err != nil {
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
	if none != files || none != mem || none > 12 {
		t.Fatalf("Get-hit allocs: %v with no range tombstones, %v with 100 in files, %v with 100 in the memtable; want all equal and <= 12", none, files, mem)
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
		if err := d.Put([]byte(fmt.Sprintf("key%05d", i)), testValue(uint64(i), i)); err != nil {
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
					dk := int(testDK(it.Value()))
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
