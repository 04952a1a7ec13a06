package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/manifest"
	"repro/internal/storetest"
	"repro/internal/vfs"
	"repro/internal/vfs/errorfs"
)

// flushTwin is a store set up for a flush whose memtable's tombstones are
// about to outlive level 0's budget, with the models of what it holds.
type flushTwin struct {
	d      *DB
	clk    *base.LogicalClock
	mem    *vfs.MemFS
	efs    *errorfs.FS
	model  *storetest.Model
	snap   *Snapshot        // nil unless the config pins one
	frozen *storetest.Model // the snapshot's state
	tables []string         // every table file created, in order
}

type twinConfig struct {
	// deep puts keys under level 1's in the last level first, with delete
	// keys a range delete of the memtable covers.
	deep bool
	// snap pins a snapshot midway through the memtable's writes, between
	// two versions of some keys.
	snap bool
	// tiered opens the store size-tiered, so level 1 is not one run.
	tiered bool
	// sync makes every write durable when acknowledged.
	sync bool
}

// openFlushTwin builds the store both sides of a flush-into-L1 comparison
// start from: level 1 holds the even keys below 600, and the mutable
// memtable holds fresh keys beside them, overwrites of them (some twice),
// point deletes of theirs and of its own, and a range delete of level-1
// values — none of its tombstones yet past level 0's budget. The DPT is
// 1000 ticks, and the clock has not moved since the first write.
func openFlushTwin(t *testing.T, cfg twinConfig) *flushTwin {
	tw := &flushTwin{clk: &base.LogicalClock{}, mem: vfs.NewMemFS(), model: storetest.NewModel()}
	tw.efs = errorfs.Wrap(tw.mem, 1)
	tw.efs.Add(&errorfs.Rule{
		Ops: []errorfs.Op{errorfs.OpCreate}, PathGlob: "*.sst", Sticky: true, Kind: errorfs.FaultNone,
		Hook: func(_ errorfs.Op, path string) { tw.tables = append(tw.tables, filepath.Base(path)) },
	})
	opts := testOptions(tw.efs, tw.clk)
	opts.MemTableBytes = 1 << 20
	opts.SyncWrites = cfg.sync
	opts.Compaction.Picker = compaction.PickFADE
	opts.Compaction.DPT = 1000
	opts.Compaction.L0Threshold = 1
	if cfg.tiered {
		opts.Compaction.Policy = compaction.PolicySizeTiered
	}
	d := mustOpen(t, opts)
	tw.d = d
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	key := func(i int) string { return fmt.Sprintf("key%05d", i) }
	put := func(i, tag int) {
		v := storetest.Value(uint64(tag), tag)
		must(d.Put([]byte(key(i)), v))
		tw.model.Put(key(i), v)
	}
	del := func(i int) {
		must(d.Delete([]byte(key(i))))
		tw.model.Delete(key(i))
	}
	delRange := func(lo, hi base.DeleteKey) {
		must(d.DeleteSecondaryRange(lo, hi))
		tw.model.DeleteRange(lo, hi)
	}

	if cfg.deep {
		for i := 0; i < 300; i++ {
			put(i, i)
		}
		must(d.CompactAll()) // into the last level
	}
	for i := 0; i < 600; i += 2 {
		put(i, 1000+i)
	}
	must(d.Flush())
	must(d.WaitIdle()) // one level-0 run is over the threshold: it moves down
	if li := d.Levels(); li[0].Files != 0 || li[1].Files == 0 {
		t.Fatalf("set-up: levels %+v, want level 1 populated and level 0 empty", li)
	}

	for i := 1; i < 600; i += 4 {
		put(i, 2000+i)
	}
	for i := 0; i < 600; i += 6 {
		put(i, 3000+i)
	}
	if cfg.snap {
		tw.snap, tw.frozen = d.NewSnapshot(), tw.model.Clone()
	}
	for i := 0; i < 600; i += 12 {
		put(i, 4000+i)
	}
	for i := 2; i < 600; i += 10 {
		del(i)
	}
	for i := 5; i < 600; i += 20 {
		del(i)
	}
	delRange(1000, 1100)
	if cfg.deep {
		delRange(100, 150)
	}
	return tw
}

// check compares the store with its models, the snapshot's included.
func (tw *flushTwin) check(t *testing.T) {
	t.Helper()
	storetest.Check(t, target(tw.d), tw.model, 0)
	if tw.snap != nil {
		at := &storetest.Target{Scan: func(b storetest.Bounds) (storetest.Iter, error) {
			return tw.d.NewIter(IterOptions{LowerBound: b.Lower, UpperBound: b.Upper, Snapshot: tw.snap})
		}}
		if diff := storetest.Diff(at, tw.frozen); diff != "" {
			t.Fatalf("snapshot: %s", diff)
		}
	}
}

// sameTree fails unless a and b hold the same levels and booked the same
// maintenance and tombstone ledger.
func sameTree(t *testing.T, a, b *DB) {
	t.Helper()
	if la, lb := a.Levels(), b.Levels(); la != lb {
		t.Fatalf("levels differ:\n%+v\n%+v", la, lb)
	}
	if ra, rb := len(a.vs.Current().RangeTombstones()), len(b.vs.Current().RangeTombstones()); ra != rb {
		t.Fatalf("%d range tombstones in the tree, %d in its twin", ra, rb)
	}
	sa, sb := a.Stats(), b.Stats()
	for _, c := range []struct {
		name string
		a, b int64
	}{
		{"Flushes", sa.Flushes.Get(), sb.Flushes.Get()},
		{"TTL compactions", sa.CompactionsByTrigger[compaction.TriggerTTL].Get(), sb.CompactionsByTrigger[compaction.TriggerTTL].Get()},
		{"CompactBytesWritten", sa.CompactBytesWritten.Get(), sb.CompactBytesWritten.Get()},
		{"TombstonesPersisted", sa.TombstonesPersisted.Get(), sb.TombstonesPersisted.Get()},
		{"TombstonesSuperseded", sa.TombstonesSuperseded.Get(), sb.TombstonesSuperseded.Get()},
		{"RangeTombstonesPersisted", sa.RangeTombstonesPersisted.Get(), sb.RangeTombstonesPersisted.Get()},
		{"LiveTombstones", sa.LiveTombstones.Get(), sb.LiveTombstones.Get()},
		{"ShadowedDropped", sa.ShadowedDropped.Get(), sb.ShadowedDropped.Get()},
		{"persistence samples", sa.PersistenceLatency.Count(), sb.PersistenceLatency.Count()},
		{"max persistence latency", sa.PersistenceLatency.Max(), sb.PersistenceLatency.Max()},
	} {
		if c.a != c.b {
			t.Fatalf("%s: %d, its twin %d", c.name, c.a, c.b)
		}
	}
}

// TestFlushIntoL1MatchesTTLJob: a memtable whose tombstones have outlived
// level 0's budget merges straight into level 1, creating no level-0 table,
// and leaves exactly the tree — levels, range tombstones, snapshot stripes,
// tombstone ledger, compaction bytes — that a level-0 flush followed by the
// TTL job leaves at the same clock reading. With data beneath level 1 under
// the memtable's key span (deep), the merge is not bottommost: no tombstone
// is disposed, and none of the deep keys it deletes comes back.
func TestFlushIntoL1MatchesTTLJob(t *testing.T) {
	for _, cfg := range []twinConfig{{}, {snap: true}, {deep: true}, {deep: true, snap: true}} {
		t.Run(fmt.Sprintf("deep=%v/snap=%v", cfg.deep, cfg.snap), func(t *testing.T) {
			a, b := openFlushTwin(t, cfg), openFlushTwin(t, cfg)

			a.clk.Advance(2000)
			created, flushed := len(a.tables), a.d.Stats().BytesFlushed.Get()
			if err := a.d.Flush(); err != nil {
				t.Fatal(err)
			}
			if n := a.d.Stats().FlushesToL1.Get(); n != 1 {
				t.Fatalf("FlushesToL1 = %d, want 1", n)
			}
			if n := a.d.Stats().BytesFlushed.Get() - flushed; n != 0 {
				t.Fatalf("a flush into level 1 booked %d bytes flushed", n)
			}
			inL1 := map[string]bool{}
			for _, r := range a.d.vs.Current().Levels[1] {
				for _, f := range r.Files {
					inL1[filepath.Base(manifest.MakeFilename("db", manifest.FileTypeTable, f.FileNum))] = true
				}
			}
			if len(a.tables) == created {
				t.Fatal("the flush created no table")
			}
			for _, name := range a.tables[created:] {
				if !inL1[name] {
					t.Fatalf("the flush created %s, which is not in level 1", name)
				}
			}

			if err := b.d.Flush(); err != nil {
				t.Fatal(err)
			}
			if n, l0 := b.d.Stats().FlushesToL1.Get(), b.d.Levels()[0].Files; n != 0 || l0 != 1 {
				t.Fatalf("within budget: %d flushes into level 1 and %d level-0 files, want 0 and 1", n, l0)
			}
			b.clk.Advance(2000)
			if _, err := b.d.MaintenanceStep(); err != nil { // the level-0 TTL job
				t.Fatal(err)
			}
			sameTree(t, a.d, b.d)
			if cfg.deep && a.d.Stats().TombstonesPersisted.Get() != 0 {
				t.Fatalf("%d tombstones disposed above data they shadow", a.d.Stats().TombstonesPersisted.Get())
			}
			if !cfg.deep && !cfg.snap && a.d.Stats().RangeTombstonesPersisted.Get() == 0 {
				t.Fatal("a bottommost merge with no snapshot kept its range tombstone")
			}
			for _, tw := range []*flushTwin{a, b} {
				tw.check(t)
			}

			for _, tw := range []*flushTwin{a, b} {
				if err := tw.d.WaitIdle(); err != nil {
					t.Fatal(err)
				}
				if tw.snap != nil {
					tw.check(t)
					tw.snap.Release()
					tw.snap = nil
					if err := tw.d.WaitIdle(); err != nil {
						t.Fatal(err)
					}
				}
				tw.check(t)
				checkTombstoneLedger(t, tw.d)
			}
			sameTree(t, a.d, b.d)
		})
	}
}

// TestFlushIntoL1Declined: the flush writes a level-0 table as usual when
// the memtable's tombstones are within level 0's budget, when level 0 holds
// a run (older level-0 data must stay above the memtable's), when level 1
// is tiered, and when a running job's claim overlaps the merge.
func TestFlushIntoL1Declined(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  twinConfig
		prep func(t *testing.T, tw *flushTwin)
	}{
		{"within-budget", twinConfig{}, func(_ *testing.T, tw *flushTwin) { tw.clk.Advance(1000) }},
		{"l0-not-empty", twinConfig{}, func(t *testing.T, tw *flushTwin) {
			// Flushed within budget, the memtable lands in level 0; a
			// second one, past it, must land above it.
			if err := tw.d.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := tw.d.Delete([]byte("key00003")); err != nil {
				t.Fatal(err)
			}
			tw.model.Delete("key00003")
			tw.clk.Advance(2000)
		}},
		{"size-tiered", twinConfig{tiered: true}, func(_ *testing.T, tw *flushTwin) { tw.clk.Advance(2000) }},
		{"claimed", twinConfig{}, func(_ *testing.T, tw *flushTwin) {
			tw.clk.Advance(2000)
			// A running job holding part of level 1.
			tw.d.pickMu.Lock()
			tw.d.inflight[1<<62] = compaction.Rect{MinLevel: 1, MaxLevel: 2, Lo: []byte("key00100"), Hi: []byte("key00200")}
			tw.d.pickMu.Unlock()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tw := openFlushTwin(t, tc.cfg)
			tc.prep(t, tw)
			l0 := tw.d.Levels()[0].Files
			if err := tw.d.Flush(); err != nil {
				t.Fatal(err)
			}
			s := tw.d.Stats()
			if n := s.FlushesToL1.Get(); n != 0 {
				t.Fatalf("FlushesToL1 = %d, want 0", n)
			}
			if got := tw.d.Levels()[0].Files; got != l0+1 || s.BytesFlushed.Get() == 0 {
				t.Fatalf("level 0 went from %d to %d files, %d bytes flushed: want one more table", l0, got, s.BytesFlushed.Get())
			}
			tw.d.pickMu.Lock()
			tw.d.inflight.Release(1 << 62)
			tw.d.pickMu.Unlock()
			if err := tw.d.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			tw.check(t)
			checkTombstoneLedger(t, tw.d)
		})
	}
}

// TestFlushIntoL1Crash crashes a flush into level 1 after its outputs are
// synced but before the manifest append, and after the append but before
// the WAL segment is removed. The reopened store holds every acknowledged
// write, no table the manifest does not name, and scrubs clean. After the
// append, it also holds the flushed memtable once: in level 1, not again
// replayed into level 0 (checkNoReplay).
func TestFlushIntoL1Crash(t *testing.T) {
	for _, point := range []struct {
		name     string
		op       errorfs.Op
		glob     string
		appended bool // the crash follows the manifest append
	}{
		{"before-manifest-append", errorfs.OpWrite, "MANIFEST-*", false},
		{"before-wal-removal", errorfs.OpRemove, "*.log", true},
	} {
		t.Run(point.name, func(t *testing.T) {
			tw := openFlushTwin(t, twinConfig{sync: true})
			tw.clk.Advance(2000)
			var crash *vfs.MemFS
			tw.efs.Add(&errorfs.Rule{
				Ops: []errorfs.Op{point.op}, PathGlob: point.glob, Kind: errorfs.FaultNone,
				Hook: func(errorfs.Op, string) { crash = tw.mem.CrashClone() },
			})
			if err := tw.d.Flush(); err != nil {
				t.Fatal(err)
			}
			if crash == nil || tw.d.Stats().FlushesToL1.Get() != 1 {
				t.Fatalf("crash point reached: %v, flushes into level 1: %d", crash != nil, tw.d.Stats().FlushesToL1.Get())
			}

			opts := tw.d.opts
			opts.FS = crash
			d := mustOpen(t, opts)
			storetest.Check(t, target(d), tw.model, 0)
			if err := d.VerifyChecksums(); err != nil {
				t.Fatalf("scrub after recovery: %v", err)
			}
			live := map[string]bool{}
			d.vs.Current().AllFiles(func(_ int, f *manifest.FileMetadata) {
				live[filepath.Base(manifest.MakeFilename("db", manifest.FileTypeTable, f.FileNum))] = true
			})
			for _, name := range listTables(t, crash) {
				if !live[name] {
					t.Fatalf("orphan table %s after recovery", name)
				}
			}
			checkTombstoneLedger(t, d)
			if point.appended {
				checkNoReplay(t, d, tw.d)
			}
		})
	}
}

// TestFlushCrashBeforeWALRemoval crashes a plain flush to level 0 after its
// manifest append, before its WAL segment is removed. The reopened store
// holds the memtable once, as the one level-0 table the flush wrote.
func TestFlushCrashBeforeWALRemoval(t *testing.T) {
	tw := openFlushTwin(t, twinConfig{sync: true})
	var crash *vfs.MemFS
	tw.efs.Add(&errorfs.Rule{
		Ops: []errorfs.Op{errorfs.OpRemove}, PathGlob: "*.log", Kind: errorfs.FaultNone,
		Hook: func(errorfs.Op, string) { crash = tw.mem.CrashClone() },
	})
	if err := tw.d.Flush(); err != nil {
		t.Fatal(err)
	}
	l0 := tw.d.vs.Current().Levels[0]
	if crash == nil || len(l0) != 1 || len(l0[0].Files) != 1 {
		t.Fatalf("crash point reached: %v, level 0: %d runs", crash != nil, len(l0))
	}

	opts := tw.d.opts
	opts.FS = crash
	d := mustOpen(t, opts)
	storetest.Check(t, target(d), tw.model, 0)
	checkTombstoneLedger(t, d)
	checkNoReplay(t, d, tw.d)
	storetest.Check(t, target(d), tw.model, 0)
}

// checkNoReplay fails unless d — crashed's store, reopened after a crash
// between a flush's manifest append and its WAL segment's removal — holds
// the flushed memtable once: level 0 holds the tables crashed's held, the live
// tombstone gauge reads what crashed's read, and maintenance then books no
// persistence sample beyond the point and range tombstones crashed held
// live. A replayed segment would bring back, live, tombstones the flush
// had already disposed of.
func checkNoReplay(t *testing.T, d, crashed *DB) {
	t.Helper()
	level0 := func(d *DB) []base.FileNum {
		var fns []base.FileNum
		for _, r := range d.vs.Current().Levels[0] {
			for _, f := range r.Files {
				fns = append(fns, f.FileNum)
			}
		}
		return fns
	}
	if got, want := level0(d), level0(crashed); !slices.Equal(got, want) {
		t.Fatalf("level 0 holds tables %v after recovery, %v before the crash", got, want)
	}
	live := crashed.Stats().LiveTombstones.Get()
	if n := d.Stats().LiveTombstones.Get(); n != live {
		t.Fatalf("LiveTombstones = %d after recovery, %d before the crash", n, live)
	}
	live += int64(len(crashed.vs.Current().RangeTombstones()))
	if err := d.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if n := d.Stats().PersistenceLatency.Count(); n > live {
		t.Fatalf("maintenance after recovery booked %d persistence samples; %d tombstones were live at the crash", n, live)
	}
}

// TestIterAfterCloseOpensNoReader: an iterator opened before Close and
// stepped after it fails with ErrClosed; it does not open table readers into
// the closed store's cache, where nothing would ever close them.
func TestIterAfterCloseOpensNoReader(t *testing.T) {
	d, err := Open("db", testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("key%05d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	it, err := d.NewIter(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if err := it.Error(); !errors.Is(err, ErrClosed) {
		t.Fatalf("iterating after Close read %d keys and ended with %v, want ErrClosed", n, err)
	}
	_ = it.Close()
	d.cache.mu.Lock()
	open := len(d.cache.tables)
	d.cache.mu.Unlock()
	if open != 0 {
		t.Fatalf("%d readers left open in the closed store's cache", open)
	}
}
