package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// C4IteratorThroughput measures the range-scan read path: steady-state Next()
// throughput with the cached sorted view on vs off (scan-heavy and
// delete-heavy trees), and sstable opens per prefix scan with prefix Bloom
// filters on vs off. Wall-clock experiment: throughput numbers vary run to
// run; the opens and skip counters are deterministic.
func C4IteratorThroughput(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "C4",
		Title:  "iterator throughput: cached sorted views and prefix bloom skipping (wall clock)",
		Header: []string{"workload", "views", "pbloom", "mnext_per_s", "steps", "tables_opened", "view_builds", "view_hits", "bloom_skips"},
		Notes: []string{
			"scan/delete rows compare the cached-view merge against the k-way heap on the same 32-run tree",
			"prefix rows probe every key-prefix family once; opens count sstable iterators actually materialized",
			"prefix scans bypass the view (their filtered file set has no cached selector sequence)",
			"wall-clock experiment: absolute throughput varies run to run",
		},
	}

	// A scan-heavy steady state on a tiered tree accumulates many sorted
	// runs — the regime the cached view exists for. The heap baseline pays
	// ~2·log2(runs) key compares per step; the view pays one cursor advance.
	const runs = 32
	for _, w := range []string{"scan-heavy", "delete-heavy"} {
		for _, disableViews := range []bool{false, true} {
			row, err := c4ScanRow(sc, w, runs, disableViews)
			if err != nil {
				return nil, err
			}
			t.AddRow(row...)
		}
	}
	for _, pbloom := range []bool{true, false} {
		row, err := c4PrefixRow(sc, runs, pbloom)
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	return t, nil
}

// c4Open builds the C4 engine: manual maintenance, a logical clock, and the
// scan knobs under test.
func c4Open(sc Scale, disableViews bool, prefixBloomLen int) (*core.DB, error) {
	opts := core.Options{
		FS:                     vfs.NewMemFS(),
		MemTableBytes:          sc.MemTableBytes,
		BloomBitsPerKey:        10,
		PrefixBloomLength:      prefixBloomLen,
		DisableReadViews:       disableViews,
		DeleteKeyFunc:          workload.ExtractDeleteKey,
		DisableAutoMaintenance: true,
		Compaction: compaction.Options{
			Policy:          compaction.PolicyLeveled,
			Picker:          compaction.PickMinOverlap,
			SizeRatio:       sc.SizeRatio,
			BaseLevelBytes:  sc.BaseLevelBytes,
			TargetFileBytes: sc.TargetFileBytes,
		},
	}
	return core.Open("bench-db", opts)
}

// c4ScanRow fills a tree whose keys interleave across `runs` flushed sorted
// runs — the worst case for a heap merge (the winning source changes every
// step) and the best case for a cached view (one cursor advance) — then
// measures full-scan Next() throughput.
func c4ScanRow(sc Scale, w string, runs int, disableViews bool) ([]string, error) {
	db, err := c4Open(sc, disableViews, 0)
	if err != nil {
		return nil, err
	}
	defer db.Close()

	// Scan-tree values are small (scans measure iteration, not value
	// copying) and keys carry a long shared prefix, as real scan keys do.
	rng := rand.New(rand.NewSource(4))
	val := make([]byte, 16)
	for r := 0; r < runs; r++ {
		for i := r; i < sc.KeySpace; i += runs {
			rng.Read(val[8:])
			if err := db.Put([]byte(c4Key(i)), val); err != nil {
				return nil, err
			}
		}
		if err := db.Flush(); err != nil {
			return nil, err
		}
	}
	live := int64(sc.KeySpace)
	if w == "delete-heavy" {
		// A newest run of tombstones over a third of the keys: Next() must
		// step over interleaved deletions while settling.
		for i := 0; i < sc.KeySpace; i += 3 {
			if err := db.Delete([]byte(c4Key(i))); err != nil {
				return nil, err
			}
			live--
		}
		if err := db.Flush(); err != nil {
			return nil, err
		}
	}

	// Two warm-up scans: the first earns the view (a full scan steps over
	// the whole version) and warms the table cache, the second builds it, so
	// the timed scans measure the steady state.
	scan := func() (int64, error) {
		it, err := db.NewIter(core.IterOptions{})
		if err != nil {
			return 0, err
		}
		defer it.Close()
		var n int64
		for ok := it.First(); ok; ok = it.Next() {
			n++
		}
		if err := it.Error(); err != nil {
			return 0, err
		}
		// Deferred, building or served by the view, with views on or off:
		// every scan returns exactly the live keys.
		if n != live {
			return 0, fmt.Errorf("c4 %s views=%s: scanned %d keys, want %d", w, onOff(!disableViews), n, live)
		}
		return n, nil
	}
	for warm := 0; warm < 2; warm++ {
		if _, err := scan(); err != nil {
			return nil, err
		}
	}
	var steps int64
	start := time.Now()
	for steps < int64(4*sc.Ops) {
		n, err := scan()
		if err != nil {
			return nil, err
		}
		steps += n
	}
	dur := time.Since(start)

	st := db.Stats()
	if metricsSink != nil {
		metricsSink(fmt.Sprintf("%s-views=%v", w, !disableViews), db)
	}
	mnext := float64(steps) / dur.Seconds() / 1e6
	return []string{
		w, onOff(!disableViews), "off", F(mnext), I(steps),
		I(st.IterTablesOpened.Get()), I(st.IterViewBuilds.Get()),
		I(st.IterViewHits.Get()), I(st.PrefixBloomSkips.Get()),
	}, nil
}

// c4PrefixRow builds a tree where each of 64 key-prefix families lives in
// only one of the `runs` sorted runs. Every run therefore holds a sparse
// family subset, so its files straddle most probe prefixes by key range
// while containing none of their keys — exactly the tables only a prefix
// Bloom filter can exclude. Each family is probed once; the row reports the
// total sstable opens and per-probe scan cost.
func c4PrefixRow(sc Scale, runs int, pbloom bool) ([]string, error) {
	pblen := 0
	if pbloom {
		pblen = 4 // covers the "p%02d" family prefix plus the separator
	}
	db, err := c4Open(sc, false, pblen)
	if err != nil {
		return nil, err
	}
	defer db.Close()

	const families = 64
	perFam := sc.KeySpace / families
	if perFam == 0 {
		perFam = 1
	}
	rng := rand.New(rand.NewSource(4))
	val := make([]byte, sc.ValueLen)
	for r := 0; r < runs; r++ {
		for fam := r; fam < families; fam += runs {
			for i := 0; i < perFam; i++ {
				rng.Read(val[8:])
				if err := db.Put([]byte(fmt.Sprintf("p%02d/%06d", fam, i)), val); err != nil {
					return nil, err
				}
			}
		}
		if err := db.Flush(); err != nil {
			return nil, err
		}
	}

	st := db.Stats()
	var steps int64
	start := time.Now()
	for fam := 0; fam < families; fam++ {
		it, err := db.NewIter(core.IterOptions{Prefix: []byte(fmt.Sprintf("p%02d/", fam))})
		if err != nil {
			return nil, err
		}
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			n++
		}
		err = it.Error()
		it.Close()
		if err != nil {
			return nil, err
		}
		if n != perFam {
			return nil, fmt.Errorf("c4 prefix p%02d: scanned %d keys, want %d", fam, n, perFam)
		}
		steps += int64(n)
	}
	dur := time.Since(start)

	if metricsSink != nil {
		metricsSink(fmt.Sprintf("prefix-pbloom=%v", pbloom), db)
	}
	mnext := float64(steps) / dur.Seconds() / 1e6
	return []string{
		"prefix-scan", "on", onOff(pbloom), F(mnext), I(steps),
		I(st.IterTablesOpened.Get()), I(st.IterViewBuilds.Get()),
		I(st.IterViewHits.Get()), I(st.PrefixBloomSkips.Get()),
	}, nil
}

// c4Key shapes scan-tree keys like real composite scan keys: a long shared
// tenant/table prefix followed by a row id. The shared prefix makes every
// heap compare walk many equal bytes — the cost profile wide scans actually
// have.
func c4Key(i int) string {
	return fmt.Sprintf("tenant-0001/table-0001/row-%016d", i)
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
