package core

import (
	"fmt"
	"testing"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/storetest"
	"repro/internal/vfs"
)

func testOptions(fs vfs.FS, clk base.Clock) Options {
	return Options{
		FS:                     fs,
		Clock:                  clk,
		MemTableBytes:          32 << 10,
		DeleteKeyFunc:          storetest.DeleteKey,
		DisableAutoMaintenance: true,
		Compaction: compaction.Options{
			SizeRatio:       4,
			L0Threshold:     2,
			BaseLevelBytes:  64 << 10,
			TargetFileBytes: 16 << 10,
		},
	}
}

// tune gives opts its own copy of the default tuning and returns it, for
// the test to set the pool size, stall limits or retry policy before Open.
func tune(opts *Options) *tuning {
	opts.tuning = defaultTuning()
	return opts.tuning
}

// target presents d to the shared differential suite.
func target(d *DB) *storetest.Target {
	scan := func(snap *Snapshot) func(storetest.Bounds) (storetest.Iter, error) {
		return func(b storetest.Bounds) (storetest.Iter, error) {
			return d.NewIter(IterOptions{LowerBound: b.Lower, UpperBound: b.Upper, Prefix: b.Prefix, Snapshot: snap})
		}
	}
	return &storetest.Target{
		Store:    d,
		NotFound: ErrNotFound,
		Apply: func(ops []storetest.Op) error {
			b := NewBatch()
			for _, o := range ops {
				if o.Delete {
					b.Delete(o.Key)
				} else {
					b.Put(o.Key, o.Value)
				}
			}
			return d.Apply(b)
		},
		Scan: scan(nil),
		Snapshot: func() (func(storetest.Bounds) (storetest.Iter, error), func()) {
			s := d.NewSnapshot()
			return scan(s), s.Release
		},
		Flush:           d.Flush,
		MaintenanceStep: func() error { _, err := d.MaintenanceStep(); return err },
		WaitIdle:        d.WaitIdle,
		CompactAll:      d.CompactAll,
		Ledgers: func() ([]storetest.Ledger, error) {
			err := d.WaitIdle()
			return []storetest.Ledger{ledger(d)}, err
		},
		FlushesToL1: d.Stats().FlushesToL1.Get,
	}
}

// openTarget opens "db" and presents it to the shared suite; each reopen
// applies next, when set, to the options first. A crash reopen abandons the
// store and reopens a crash clone of its in-memory filesystem.
func openTarget(t testing.TB, opts Options, next func(leg int, o *Options)) *storetest.Target {
	t.Helper()
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	tg := target(d)
	tg.Reopen = func(leg int, crash bool) (*storetest.Target, error) {
		if crash {
			opts.FS = opts.FS.(*vfs.MemFS).CrashClone()
		} else if err := d.Close(); err != nil {
			return nil, err
		}
		if next != nil {
			next(leg, &opts)
		}
		return openTarget(t, opts, next), nil
	}
	return tg
}

// TestModelEquivalence drives random operations against the engine and the
// model, checking full equivalence every 1 500 ops and after settling, across
// the key engine configurations. Delete keys are numbered in write order,
// so range deletes cut time-like slices.
func TestModelEquivalence(t *testing.T) {
	fade := func(o *Options) {
		o.Compaction.Picker = compaction.PickFADE
		o.Compaction.DPT = 2000
	}
	configs := []struct {
		name string
		mod  func(*Options)
	}{
		{"leveling-baseline", func(o *Options) {}},
		{"leveling-fade", fade},
		{"tiering", func(o *Options) { o.Compaction.Policy = compaction.PolicySizeTiered }},
		{"tiering-fade", func(o *Options) {
			o.Compaction.Policy = compaction.PolicySizeTiered
			fade(o)
		}},
		{"lazy-leveling", func(o *Options) { o.Compaction.Policy = compaction.PolicyLazyLeveling }},
		{"lazy-leveling-fade", func(o *Options) {
			o.Compaction.Policy = compaction.PolicyLazyLeveling
			fade(o)
		}},
		{"kiwi-eager", func(o *Options) {
			o.PagesPerTile = 4
			o.EagerRangeDeletes = true
			fade(o)
		}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			clk := &base.LogicalClock{}
			opts := testOptions(vfs.NewMemFS(), clk)
			cfg.mod(&opts)
			storetest.Run(t, openTarget(t, opts, nil), storetest.Config{
				Seed: 42, Ops: 6000, Keys: 2000, Clock: clk, Tick: 1,
				Mix:        storetest.Mix{Put: 55, Delete: 20, RangeDelete: 3, Get: 22},
				CheckEvery: 1500, IdleEvery: 64, Settle: true,
			})
		})
	}
}

// TestReopenPreservesModel reopens the store four times, alternately after
// a crash, which recovers the memtable by WAL replay, and after a Close,
// and checks equivalence after each.
func TestReopenPreservesModel(t *testing.T) {
	clk := &base.LogicalClock{}
	cfg := storetest.Config{
		Seed: 9, Ops: 4800, Keys: 800, Clock: clk, Tick: 1,
		Mix:       storetest.Mix{Put: 75, Delete: 20, RangeDelete: 5},
		IdleEvery: 128,
	}
	for r := 1; r <= 4; r++ {
		cfg.Reopens = append(cfg.Reopens, storetest.Reopen{After: r*1200 - 1, Crash: r%2 == 1})
	}
	opts := testOptions(vfs.NewMemFS(), clk)
	opts.SyncWrites = true
	storetest.Run(t, openTarget(t, opts, nil), cfg)
}

// TestReopenReplaysRangeTombstones covers WAL replay of secondary range
// deletes issued just before a close.
func TestReopenReplaysRangeTombstones(t *testing.T) {
	fs := vfs.NewMemFS()
	clk := &base.LogicalClock{}
	opts := testOptions(fs, clk)
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	m := storetest.NewModel()
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%04d", i)
		v := storetest.Value(uint64(i), i)
		if err := d.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		m.Put(k, v)
	}
	if err := d.DeleteSecondaryRange(0, 100); err != nil {
		t.Fatal(err)
	}
	m.DeleteRange(0, 100)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	storetest.Check(t, target(d), m, 0)
}

// TestGetMissAllocs: a Get whose block is not cached allocates once, for the
// value it returns: the block is read into a buffer recycled from an evicted
// one, and pinned, not copied, until the value is copied out.
func TestGetMissAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	opts := testOptions(vfs.NewMemFS(), &base.LogicalClock{})
	opts.MemTableBytes = 64 << 20
	opts.BlockCacheBytes = 64 << 10
	d := mustOpen(t, opts)
	const n = 20000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
	for i := 0; i < n; i++ {
		if err := d.Put(key(i), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i * 7919 % n)
	}
	i := 0
	get := func() {
		if _, err := d.Get(keys[i%n]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range keys { // warm up: fill the cache and its free list
		get()
	}
	_, misses := d.BlockCacheStats()
	if a := testing.AllocsPerRun(1000, get); a > 1 {
		t.Errorf("a Get that misses the block cache allocates %.2f times, want <= 1", a)
	}
	if _, got := d.BlockCacheStats(); got-misses < 500 {
		t.Fatalf("only %d of 1001 Gets missed the block cache", got-misses)
	}
}
