package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/base"
	"repro/internal/storetest"
	"repro/internal/vfs"
)

// fillMultiRun loads the DB (and model) with enough flushed batches to leave
// several overlapping runs on disk plus data in the live memtable.
func fillMultiRun(t *testing.T, d *DB, m *storetest.Model, batches, perBatch int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tick := uint64(0)
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			k := fmt.Sprintf("key%05d", rng.Intn(batches*perBatch/2))
			tick++
			v := storetest.Value(tick, b*perBatch+i)
			if err := d.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			m.Put(k, v)
			if rng.Intn(9) == 0 {
				dk := fmt.Sprintf("key%05d", rng.Intn(batches*perBatch/2))
				if err := d.Delete([]byte(dk)); err != nil {
					t.Fatal(err)
				}
				m.Delete(dk)
			}
		}
		if b < batches-1 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// collectScan drains an iterator into (keys, values).
func collectScan(t *testing.T, it *Iter) ([]string, [][]byte) {
	t.Helper()
	var ks []string
	var vs [][]byte
	for ok := it.First(); ok; ok = it.Next() {
		ks = append(ks, string(it.Key()))
		vs = append(vs, append([]byte(nil), it.Value()...))
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	return ks, vs
}

// openViewPair runs the same workload through two engines — views on
// (default) and off — and returns them with the model both must match.
func openViewPair(t *testing.T) (dOn, dOff *DB, m *storetest.Model) {
	t.Helper()
	open := func(disable bool) (*DB, *storetest.Model) {
		opts := testOptions(vfs.NewMemFS(), &base.LogicalClock{})
		opts.DisableReadViews = disable
		d := mustOpen(t, opts)
		m := storetest.NewModel()
		fillMultiRun(t, d, m, 6, 300, 7)
		return d, m
	}
	dOn, m = open(false)
	dOff, _ = open(true)
	return dOn, dOff, m
}

// scanIdentical runs one scan on both engines, requires byte-identical
// results, and returns the internal entries the views-on scan stepped over.
func scanIdentical(t *testing.T, dOn, dOff *DB, opts IterOptions) int64 {
	t.Helper()
	scan := func(d *DB) ([]string, [][]byte, int64) {
		it, err := d.NewIter(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		ks, vs := collectScan(t, it)
		return ks, vs, it.Stepped()
	}
	kOn, vOn, stepped := scan(dOn)
	kOff, vOff, _ := scan(dOff)
	if len(kOn) != len(kOff) {
		t.Fatalf("scan [%s, %s): %d keys with views vs %d without", opts.LowerBound, opts.UpperBound, len(kOn), len(kOff))
	}
	for i := range kOn {
		if kOn[i] != kOff[i] || !bytes.Equal(vOn[i], vOff[i]) {
			t.Fatalf("scan [%s, %s) entry %d: views=(%s) plain=(%s)", opts.LowerBound, opts.UpperBound, i, kOn[i], kOff[i])
		}
	}
	return stepped
}

// TestReadViewScanMatchesDisabled requires byte-identical scans, full,
// bounded and by prefix, from the two engines, plus working view counters on
// the enabled one.
func TestReadViewScanMatchesDisabled(t *testing.T) {
	dOn, dOff, mOn := openViewPair(t)
	probes := []IterOptions{
		{},
		{LowerBound: []byte("key00100"), UpperBound: []byte("key00700")},
		{LowerBound: []byte("key00500")},
		{UpperBound: []byte("key00042")},
	}
	for _, opts := range probes {
		scanIdentical(t, dOn, dOff, opts)
	}
	// The model agrees too.
	storetest.Check(t, target(dOn), mOn, 200)

	if dOn.stats.IterViewBuilds.Get() == 0 {
		t.Fatal("views enabled but no view was ever built")
	}
	if dOn.stats.IterViewHits.Get() == 0 {
		t.Fatal("repeat scans of one version should hit the view cache")
	}
	if dOff.stats.IterViewBuilds.Get() != 0 {
		t.Fatalf("views disabled but %d were built", dOff.stats.IterViewBuilds.Get())
	}

	// A prefix scan is an ordinary bounded scan, so the built view serves it.
	hits := dOn.stats.IterViewHits.Get()
	scanIdentical(t, dOn, dOff, IterOptions{Prefix: []byte("key003")})
	if got := dOn.stats.IterViewHits.Get(); got != hits+1 {
		t.Fatalf("prefix scan: view hits %d -> %d, want one more", hits, got)
	}
}

// TestReadViewEarnedOnStaticTree: on an unchanging multi-run tree, bounded
// scans run the plain merge until together they have stepped over as many
// entries as the version holds; the first scan opened after that builds the
// view, exactly once, and every later one hits it — with results identical
// to the views-off engine before, at and after the build.
func TestReadViewEarnedOnStaticTree(t *testing.T) {
	dOn, dOff, _ := openViewPair(t)
	cost := int64(dOn.vs.Current().NumEntries())
	if cost == 0 {
		t.Fatal("fixture left nothing on disk")
	}
	// want counts what each scan must have been: deferred, the build, a hit.
	var credit int64
	var want struct{ deferred, builds, hits int64 }
	for i := 0; want.hits < 5; i++ {
		if i > 200 {
			t.Fatalf("view still unearned after %d scans (credit %d of %d)", i, credit, cost)
		}
		lo := (i * 37) % 700
		stepped := scanIdentical(t, dOn, dOff, IterOptions{
			LowerBound: []byte(fmt.Sprintf("key%05d", lo)),
			UpperBound: []byte(fmt.Sprintf("key%05d", lo+150)),
		})
		switch {
		case credit < cost:
			want.deferred++
			credit += stepped
		case want.builds == 0:
			want.builds = 1
		default:
			want.hits++
		}
		got := want
		got.deferred = dOn.stats.IterViewDeferred.Get()
		got.builds = dOn.stats.IterViewBuilds.Get()
		got.hits = dOn.stats.IterViewHits.Get()
		if got != want {
			t.Fatalf("scan %d (credit %d of %d): deferred/builds/hits = %+v, want %+v", i, credit, cost, got, want)
		}
	}
	if want.deferred < 2 {
		t.Fatalf("view earned after %d scans: the fixture no longer exercises deferral", want.deferred)
	}
}

// TestReadViewNotBuiltUnderChurn: when every scan meets a freshly installed
// version, no version's scans ever earn its view — each runs the plain merge,
// correctly, and nothing is built.
func TestReadViewNotBuiltUnderChurn(t *testing.T) {
	d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	m := storetest.NewModel()
	fillMultiRun(t, d, m, 4, 300, 13)
	rng := rand.New(rand.NewSource(5))
	const rounds = 50
	for r := 0; r < rounds; r++ {
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("key%05d", rng.Intn(600))
			v := storetest.Value(uint64(100000+r*20+i), i)
			if err := d.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			m.Put(k, v)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		from := fmt.Sprintf("key%05d", rng.Intn(500))
		keys := m.Keys()
		keys = keys[sort.SearchStrings(keys, from):]
		it, err := d.NewIter(IterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for ok := it.SeekGE([]byte(from)); ok && n < 50; ok = it.Next() {
			if n >= len(keys) || string(it.Key()) != keys[n] || !bytes.Equal(it.Value(), m.Data[keys[n]]) {
				t.Fatalf("round %d entry %d: engine has %q, model disagrees", r, n, it.Key())
			}
			n++
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if n != min(50, len(keys)) {
			t.Fatalf("round %d: scan returned %d entries, model has %d", r, n, min(50, len(keys)))
		}
	}
	if got := d.stats.IterViewBuilds.Get(); got != 0 {
		t.Fatalf("%d views built for versions that each served one short scan", got)
	}
	if got := d.stats.IterViewDeferred.Get(); got != rounds {
		t.Fatalf("IterViewDeferred = %d, want %d", got, rounds)
	}
}

// TestReadViewSnapshotAndMidScanCompaction pins a snapshot and an open
// iterator, compacts everything underneath them, and requires both the
// in-flight scan and a fresh snapshot scan to read the pinned state.
func TestReadViewSnapshotAndMidScanCompaction(t *testing.T) {
	opts := testOptions(vfs.NewMemFS(), &base.LogicalClock{})
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := storetest.NewModel()
	fillMultiRun(t, d, m, 5, 250, 21)

	snap := d.NewSnapshot()
	defer snap.Release()
	want := m.Keys()

	// Start a scan and advance partway before any mutation.
	it, err := d.NewIter(IterOptions{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []string
	ok := it.First()
	for i := 0; ok && i < len(want)/2; i++ {
		got = append(got, string(it.Key()))
		ok = it.Next()
	}

	// Mutate and compact everything while the scan is mid-flight.
	for i := 0; i < 300; i++ {
		if err := d.Put([]byte(fmt.Sprintf("key%05d", i)), storetest.Value(uint64(900000+i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}

	// Finish the pinned scan: it must still see exactly the snapshot state.
	for ; ok; ok = it.Next() {
		got = append(got, string(it.Key()))
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("mid-scan compaction changed the scan: %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %s != %s", i, got[i], want[i])
		}
	}

	// A fresh iterator over the same snapshot agrees (this one builds or
	// reuses a view for the OLD pinned version even though newer versions
	// exist).
	it2, err := d.NewIter(IterOptions{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer it2.Close()
	got2, _ := collectScan(t, it2)
	if len(got2) != len(want) {
		t.Fatalf("snapshot scan after compaction: %d keys, want %d", len(got2), len(want))
	}

	if d.stats.IterViewInvalidations.Get() == 0 {
		t.Fatal("compaction should have invalidated cached views")
	}
}

// TestPrefixScanWithoutFiltersStillCorrect: a prefix scan is the bounded scan
// [prefix, successor): it returns exactly the keys with the prefix, and one
// whose bounds lie past every table opens none.
func TestPrefixScanWithoutFiltersStillCorrect(t *testing.T) {
	opts := testOptions(vfs.NewMemFS(), &base.LogicalClock{})
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := storetest.NewModel()
	fillMultiRun(t, d, m, 4, 200, 3)

	it, err := d.NewIter(IterOptions{Prefix: []byte("key001")})
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := collectScan(t, it)
	it.Close()

	var want []string
	for _, k := range m.Keys() {
		if bytes.HasPrefix([]byte(k), []byte("key001")) {
			want = append(want, k)
		}
	}
	if len(keys) != len(want) {
		t.Fatalf("prefix scan: %d keys, want %d", len(keys), len(want))
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("entry %d: %s != %s", i, keys[i], want[i])
		}
	}

	opened := d.stats.IterTablesOpened.Get()
	it, err = d.NewIter(IterOptions{Prefix: []byte("zzzz")})
	if err != nil {
		t.Fatal(err)
	}
	keys, _ = collectScan(t, it)
	it.Close()
	if len(keys) != 0 || d.stats.IterTablesOpened.Get() != opened {
		t.Fatalf("absent-prefix scan returned %d keys and opened %d tables", len(keys), d.stats.IterTablesOpened.Get()-opened)
	}
}

// TestPrefixSuccessor pins the implied-upper-bound edge cases.
func TestPrefixSuccessor(t *testing.T) {
	cases := []struct {
		in   string
		want []byte
	}{
		{"abc", []byte("abd")},
		{"a\xff", []byte("b")},
		{"\xff\xff", nil},
		{"", nil},
	}
	for _, c := range cases {
		if got := prefixSuccessor([]byte(c.in)); !bytes.Equal(got, c.want) {
			t.Errorf("prefixSuccessor(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestReadViewReseekCounting: positioning calls beyond an iterator's first
// count as reseeks.
func TestReadViewReseekCounting(t *testing.T) {
	opts := testOptions(vfs.NewMemFS(), &base.LogicalClock{})
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := storetest.NewModel()
	fillMultiRun(t, d, m, 3, 150, 11)

	before := d.stats.IterReseeks.Get()
	it, err := d.NewIter(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	it.First()
	it.SeekGE([]byte("key00100"))
	it.SeekGE([]byte("key00200"))
	it.First()
	if got := d.stats.IterReseeks.Get() - before; got != 3 {
		t.Fatalf("reseeks = %d, want 3 (4 positioning calls, first exempt)", got)
	}
}
