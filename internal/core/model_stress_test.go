package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/manifest"
	"repro/internal/storetest"
	"repro/internal/vfs"
)

// TestModelDifferentialStress drives the engine with the shared op soup —
// puts, deletes, batches, secondary range deletes, scans across flushes and
// maintenance steps, pinned snapshots, and two full reopens, the first after
// a crash (WAL replay) and the second after CompactAll and Close — and
// continuously diffs it against the reference model, under every compaction
// policy. Each reopen switches policy, and over the starting policies and
// seeds every ordered pair is crossed: a tree built under one layout must
// read the same and converge under another.
// A fourth run starts leveled under the soup's FADE configuration, where
// most flushes merge their memtable straight into level 1.
// Seeds are fixed so every failure reproduces; the "Stress" name places it
// under the race-detector gate.
func TestModelDifferentialStress(t *testing.T) {
	starts := []struct {
		kind compaction.PolicyKind
		fade bool
	}{
		{compaction.PolicyLeveled, false},
		{compaction.PolicySizeTiered, false},
		{compaction.PolicyLazyLeveling, false},
		{compaction.PolicyLeveled, true},
	}
	for _, start := range starts {
		kind := start.kind
		name := kind.String()
		if start.fade {
			name += "-fade"
		}
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				t.Parallel()
				clk := &base.LogicalClock{}
				opts := testOptions(vfs.NewMemFS(), clk)
				opts.Compaction.Policy = kind
				if start.fade {
					opts.Compaction.Picker = compaction.PickFADE
					opts.Compaction.DPT = storetest.FADEDPT
				}
				// The tree this run builds is a few tens of KB: a small L1
				// makes it several levels deep and lets levels saturate on
				// bytes, which is where a level left in another policy's
				// shape is first acted on.
				opts.Compaction.BaseLevelBytes = 4 << 10
				// The first reopen is a crash: acked writes must be durable.
				opts.SyncWrites = true
				// Each reopen moves on by one or two policies, by seed, so
				// the seeds between them cross every ordered pair.
				step := compaction.PolicyKind(1 + seed%2)
				next := func(_ int, o *Options) { o.Compaction.Policy = (o.Compaction.Policy-1+step)%3 + 1 }
				const ops = 4000
				storetest.Run(t, openTarget(t, opts, next), storetest.Config{
					Seed: seed, Ops: ops, Mix: storetest.Stress, Keys: 600, DeleteKeys: 1000,
					Clock: clk, Tick: 1000, CheckEvery: 800, FADE: start.fade,
					Reopens: []storetest.Reopen{{After: ops / 3, Crash: true}, {After: 2 * ops / 3, Compacted: true}},
				})
			})
		}
	}
}

// TestScanCompactionStress runs range scans (full and prefix) concurrently
// with writers and a maintenance loop that flushes and compacts, under the
// race detector. Each writer w inserts keys "w<w>-000000", "w<w>-000001", ...
// in order, so any iterator — which pins a sequence number and a version at
// open — must observe a CONTIGUOUS prefix of every writer's key sequence no
// matter how many compactions replace the tree mid-scan. The "Stress" name
// places it under the race-detector gate.
func TestScanCompactionStress(t *testing.T) {
	fs := vfs.NewMemFS()
	clk := &base.LogicalClock{}
	opts := testOptions(fs, clk)
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const writers = 4
	const perWriter = 1500
	done := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-%06d", w, i)
				if err := d.Put([]byte(k), storetest.Value(uint64(w), i)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
	}

	// Maintenance loop: keep flushing and compacting so scans overlap many
	// version installs (and read-view invalidations).
	var mwg sync.WaitGroup
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := d.Flush(); err != nil {
				t.Errorf("maintenance Flush: %v", err)
				return
			}
			if _, err := d.MaintenanceStep(); err != nil {
				t.Errorf("MaintenanceStep: %v", err)
				return
			}
		}
	}()

	// checkContiguous asserts the scanned keys form, per writer, the prefix
	// w<w>-000000 .. w<w>-<n-1> with nothing missing or out of order.
	checkContiguous := func(keys []string) {
		next := make([]int, writers)
		for _, k := range keys {
			var w, i int
			if _, err := fmt.Sscanf(k, "w%d-%d", &w, &i); err != nil {
				t.Errorf("malformed key %q", k)
				return
			}
			if i != next[w] {
				t.Errorf("writer %d: scan saw index %d, want %d (hole or reorder)", w, i, next[w])
				return
			}
			next[w]++
		}
	}

	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < 15; r++ {
				var opts IterOptions
				prefixed := -1
				if g%2 == 1 { // half the scanners use prefix scans
					prefixed = rng.Intn(writers)
					opts.Prefix = []byte(fmt.Sprintf("w%d-", prefixed))
				}
				it, err := d.NewIter(opts)
				if err != nil {
					t.Errorf("scanner %d: %v", g, err)
					return
				}
				var keys []string
				for ok := it.First(); ok; ok = it.Next() {
					keys = append(keys, string(it.Key()))
				}
				err = it.Error()
				it.Close()
				if err != nil {
					t.Errorf("scanner %d: %v", g, err)
					return
				}
				if prefixed >= 0 {
					for _, k := range keys {
						if !strings.HasPrefix(k, fmt.Sprintf("w%d-", prefixed)) {
							t.Errorf("prefix scan leaked key %q", k)
							return
						}
					}
				}
				checkContiguous(keys)
			}
		}()
	}

	// Writers and scanners finish on their own; then stop maintenance.
	wg.Wait()
	close(done)
	mwg.Wait()

	// Final full scan sees everything.
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	it, err := d.NewIter(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count := 0
	for ok := it.First(); ok; ok = it.Next() {
		count++
	}
	if count != writers*perWriter {
		t.Fatalf("final scan: %d keys, want %d", count, writers*perWriter)
	}
}

// TestCacheAccountingConcurrent hammers a small block cache with parallel
// readers and checks that the hit/miss/eviction/bytes accounting stays
// coherent, and that every value read is the one written: with blocks
// evicted and their buffers recycled all the time, a pin dropped before its
// reader is done shows here, and under the race detector, which poisons
// released buffers, at once. The "Concurrent" name places it under the
// race-detector gate.
func TestCacheAccountingConcurrent(t *testing.T) {
	fs := vfs.NewMemFS()
	clk := &base.LogicalClock{}
	opts := testOptions(fs, clk)
	// Small enough to force evictions (the data set below is several times
	// larger), but with room for several 4 KiB blocks per cache shard so
	// hits are possible at all.
	opts.BlockCacheBytes = 128 << 10
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const n = 8000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%06d", i)
		if err := d.Put([]byte(k), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 400; i++ {
				j := rng.Intn(n)
				k := fmt.Sprintf("key%06d", j)
				if v, err := d.Get([]byte(k)); err != nil || !bytes.Equal(v, storetest.Value(uint64(j), j)) {
					t.Errorf("Get(%q) = %q, %v", k, v, err)
					return
				}
			}
			it, err := d.NewIter(IterOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			defer it.Close()
			count := 0
			for ok := it.First(); ok; ok = it.Next() {
				if !bytes.Equal(it.Value(), storetest.Value(uint64(count), count)) {
					t.Errorf("reader %d: scan entry %d (%q) reads %q", g, count, it.Key(), it.Value())
					return
				}
				count++
			}
			if count != n {
				t.Errorf("reader %d scanned %d keys, want %d", g, count, n)
			}
		}()
	}
	wg.Wait()

	hits, misses := d.BlockCacheStats()
	c := d.cache.blocks
	if c == nil {
		t.Fatal("block cache unexpectedly disabled")
	}
	if hits != c.Hits() || misses != c.Misses() {
		t.Fatalf("BlockCacheStats (%d,%d) disagrees with cache (%d,%d)", hits, misses, c.Hits(), c.Misses())
	}
	if misses == 0 {
		t.Fatal("no cache misses recorded after cold reads")
	}
	if hits == 0 {
		t.Fatal("no cache hits recorded after repeated reads")
	}
	if c.Evictions() == 0 {
		t.Fatalf("no evictions from a %d-byte cache after reading ~%d entries", opts.BlockCacheBytes, n)
	}
	if got := c.Bytes(); got < 0 || got > opts.BlockCacheBytes {
		t.Fatalf("cache bytes %d outside [0, %d]", got, opts.BlockCacheBytes)
	}
}

// TestBloomAccountingGroundTruth checks the bloom true/false-positive and
// skip counters against exact ground truth: every present-key lookup on a
// single-table store must be a true positive, and every absent-key lookup is
// either a bloom skip or a false positive — nothing else.
func TestBloomAccountingGroundTruth(t *testing.T) {
	fs := vfs.NewMemFS()
	clk := &base.LogicalClock{}
	opts := testOptions(fs, clk)
	opts.BloomBitsPerKey = 10
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const present = 500
	for i := 0; i < present; i++ {
		k := fmt.Sprintf("key%06d", i)
		if err := d.Put([]byte(k), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}

	// All data now lives in exactly one sorted run of tables; the memtable
	// is empty, so every lookup consults table bloom filters.
	base0 := d.stats.BloomTruePositives.Get()
	for i := 0; i < present; i++ {
		k := fmt.Sprintf("key%06d", i)
		if _, err := d.Get([]byte(k)); err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
	}
	tp := d.stats.BloomTruePositives.Get() - base0
	if tp != present {
		t.Fatalf("present-key lookups: %d bloom true positives, want %d", tp, present)
	}

	// Absent probes must sort INSIDE a table's key range — a key outside
	// [smallest, largest] never reaches the table, so its bloom filter is
	// never consulted. "key%06dx" slots right after present key i; the
	// only probes that can miss every table are the ones landing in the
	// gap after each file's largest key.
	const absent = 2000
	files := 0
	for _, info := range d.Levels() {
		files += info.Files
	}
	skips0 := d.stats.BloomSkips.Get()
	fp0 := d.stats.BloomFalsePositives.Get()
	probed0 := d.stats.TablesProbed.Get()
	for i := 0; i < absent; i++ {
		k := fmt.Sprintf("key%06dx", i%present)
		if _, err := d.Get([]byte(k)); err != ErrNotFound {
			t.Fatalf("Get(absent %q) = %v", k, err)
		}
	}
	skips := d.stats.BloomSkips.Get() - skips0
	fp := d.stats.BloomFalsePositives.Get() - fp0
	probed := d.stats.TablesProbed.Get() - probed0
	// Every absent probe that passed a filter reached a table and found
	// nothing — so probes and false positives must agree exactly.
	if probed != fp {
		t.Fatalf("absent-key lookups: %d table probes but %d false positives", probed, fp)
	}
	// Everything else was either skipped by a filter or fell into a
	// file-boundary gap (at most one gap key per file, each probed
	// absent/present times).
	unreached := absent - skips - fp
	maxGap := int64(files) * (absent/present + 1)
	if unreached < 0 || unreached > maxGap {
		t.Fatalf("absent-key lookups: %d skips + %d false positives leaves %d unaccounted (max boundary-gap misses %d)",
			skips, fp, unreached, maxGap)
	}
	// 10 bits/key targets ~1% FP; allow generous slack before calling the
	// filter broken.
	if fp > absent/10 {
		t.Fatalf("bloom false-positive rate %d/%d exceeds 10%%", fp, absent)
	}
	if skips == 0 {
		t.Fatal("bloom filter never skipped an absent-key probe")
	}
}

// TestBloomDisabled: a negative BloomBitsPerKey writes no filters, so no
// lookup is skipped and every table an absent key falls inside is probed;
// the zero value means the default, 10 bits per key.
func TestBloomDisabled(t *testing.T) {
	if got := (Options{}).withDefaults().BloomBitsPerKey; got != 10 {
		t.Fatalf("zero BloomBitsPerKey defaults to %d, want 10", got)
	}
	opts := testOptions(vfs.NewMemFS(), &base.LogicalClock{})
	opts.BloomBitsPerKey = -1
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.opts.BloomBitsPerKey; got != -1 {
		t.Fatalf("BloomBitsPerKey = %d after defaults, want -1", got)
	}
	const present = 500
	for i := 0; i < present; i++ {
		if err := d.Put([]byte(fmt.Sprintf("key%06d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	v := d.vs.Current()
	var want int64 // tables whose key range holds an absent probe
	for i := 0; i < present; i++ {
		k := []byte(fmt.Sprintf("key%06dx", i))
		v.AllFiles(func(_ int, f *manifest.FileMetadata) {
			if f.Overlaps(k, k) {
				want++
			}
		})
		if _, err := d.Get(k); err != ErrNotFound {
			t.Fatalf("Get(absent %q) = %v", k, err)
		}
	}
	st := d.Stats()
	if st.BloomSkips.Get() != 0 || st.BloomTruePositives.Get() != 0 || st.BloomFalsePositives.Get() != 0 {
		t.Fatalf("filters disabled, yet skips=%d true positives=%d false positives=%d",
			st.BloomSkips.Get(), st.BloomTruePositives.Get(), st.BloomFalsePositives.Get())
	}
	if got := st.TablesProbed.Get(); got != want || want < present/2 {
		t.Fatalf("tables probed = %d, want %d (one per table an absent key falls inside)", got, want)
	}
}
