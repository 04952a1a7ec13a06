package shard

import (
	"fmt"
	"testing"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/storetest"
	"repro/internal/vfs"
)

// target presents r to the shared differential suite.
func target(r *Router) *storetest.Target {
	scan := func(snap *Snapshot) func(storetest.Bounds) (storetest.Iter, error) {
		return func(b storetest.Bounds) (storetest.Iter, error) {
			return r.NewIter(IterOptions{LowerBound: b.Lower, UpperBound: b.Upper, Prefix: b.Prefix, Snapshot: snap})
		}
	}
	return &storetest.Target{
		Store:    r,
		NotFound: core.ErrNotFound,
		Apply: func(ops []storetest.Op) error {
			b := core.NewBatch()
			for _, o := range ops {
				if o.Delete {
					b.Delete(o.Key)
				} else {
					b.Put(o.Key, o.Value)
				}
			}
			return r.Apply(b)
		},
		Scan: scan(nil),
		Snapshot: func() (func(storetest.Bounds) (storetest.Iter, error), func()) {
			s := r.NewSnapshot()
			return scan(s), s.Release
		},
		Flush:           r.Flush,
		MaintenanceStep: func() error { _, err := r.MaintenanceStep(); return err },
		WaitIdle:        r.WaitIdle,
		CompactAll:      r.CompactAll,
		FlushesToL1: func() int64 {
			var n int64
			for _, s := range r.Stats() {
				n += s.FlushesToL1.Get()
			}
			return n
		},
	}
}

// TestShardedModelDifferentialStress drives the sharded façade with the
// shared op soup — puts, deletes, batches spanning shards, cross-shard
// secondary range deletes, prefix and bounded merged scans across
// maintenance, snapshot vectors, and two full reopens, the first after a
// crash (WAL replay on every shard) and the second adopting the persisted
// shard count — and continuously diffs it against the model at
// 1, 2, and 4 shards. The model knows nothing about routing, so any
// misrouted, lost, or resurrected key is a divergence. At 2 shards it also
// runs the soup's FADE configuration, where most flushes merge their
// memtable straight into level 1. Seeds are fixed so every failure
// reproduces; the "Stress" name places it under the race-detector gate.
func TestShardedModelDifferentialStress(t *testing.T) {
	for _, run := range []struct {
		shards int
		fade   bool
	}{{1, false}, {2, false}, {4, false}, {2, true}} {
		shards, fade := run.shards, run.fade
		for _, seed := range []int64{1, 7, 42} {
			name := fmt.Sprintf("shards=%d/seed=%d", shards, seed)
			if fade {
				name = fmt.Sprintf("shards=%d-fade/seed=%d", shards, seed)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				clk := &base.LogicalClock{}
				opts := testOptions(vfs.NewMemFS(), clk, shards)
				opts.SyncWrites = true // the first reopen is a crash
				if fade {
					opts.Compaction.Picker = compaction.PickFADE
					opts.Compaction.DPT = storetest.FADEDPT
				}
				var open func() *storetest.Target
				open = func() *storetest.Target {
					r := mustOpen(t, "db", opts)
					t.Cleanup(func() { r.Close() })
					if n := r.NumShards(); n != shards {
						t.Fatalf("opened with %d shards, want %d", n, shards)
					}
					tg := target(r)
					tg.Reopen = func(leg int, crash bool) (*storetest.Target, error) {
						if crash {
							opts.FS = opts.FS.(*vfs.MemFS).CrashClone()
						} else if err := r.Close(); err != nil {
							return nil, err
						}
						if leg == 1 {
							opts.Shards = 0 // adopt the persisted count
						}
						return open(), nil
					}
					tg.Ledgers = func() ([]storetest.Ledger, error) {
						if err := r.Flush(); err != nil {
							return nil, err
						}
						err := r.WaitIdle()
						return ledgers(r, int64(opts.Compaction.DPT)), err
					}
					return tg
				}
				const ops = 4000
				storetest.Run(t, open(), storetest.Config{
					Seed: seed, Ops: ops, Mix: storetest.Stress, Keys: 600, DeleteKeys: 1000,
					Clock: clk, Tick: 1000, CheckEvery: 800, FADE: fade,
					Reopens: []storetest.Reopen{{After: ops / 3, Crash: true}, {After: 2 * ops / 3, Compacted: true}},
				})
			})
		}
	}
}

// ledgers reads each shard's tombstone ledger beside the tombstones its
// files hold; with the memtables flushed those are all it has.
func ledgers(r *Router, dpt int64) []storetest.Ledger {
	var ls []storetest.Ledger
	for i, s := range r.Stats() {
		var resident int64
		for _, li := range r.Shard(i).Levels() {
			resident += int64(li.Tombstones)
		}
		ls = append(ls, storetest.Ledger{
			Resident:   resident,
			Live:       s.LiveTombstones.Get(),
			Persisted:  s.TombstonesPersisted.Get() + s.RangeTombstonesPersisted.Get(),
			Samples:    s.PersistenceLatency.Count(),
			Late:       s.TombstonesPersistedLate.Get(),
			MaxLatency: s.PersistenceLatency.Max(),
			DPT:        dpt,
		})
	}
	return ls
}

// TestDPTShardSweepStress checks the FADE delete-persistence guarantee on
// a sharded store: every shard runs its own FADE machinery, so tombstones
// must reach the last level and physically erase within the DPT on every
// shard independently (within_dpt = 1.0 per shard), with no residual
// tombstone entry in any level of any shard. Deterministic clock and
// seeds; the "Stress" name places it under the race-detector gate.
func TestDPTShardSweepStress(t *testing.T) {
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			clk := &base.LogicalClock{}
			opts := testOptions(vfs.NewMemFS(), clk, shards)
			const dpt = 4000
			opts.Compaction.DPT = dpt
			opts.Compaction.Picker = compaction.PickFADE
			r := mustOpen(t, "db", opts)
			defer r.Close()

			// Build multi-level trees on every shard, then delete a
			// dedicated stripe of keys that are never written again.
			for i := 0; i < 3000; i++ {
				clk.Advance(1)
				k := fmt.Sprintf("k%05d", i%1200)
				var err error
				if i%5 == 4 {
					err = r.Delete([]byte(k))
				} else {
					err = r.Put([]byte(k), storetest.Value(uint64(i), i))
				}
				if err != nil {
					t.Fatal(err)
				}
				if i%97 == 0 {
					if err := r.WaitIdle(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 1200; i += 7 {
				clk.Advance(1)
				if err := r.Delete([]byte(fmt.Sprintf("k%05d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
			// Quiesce in fine steps so each shard's TTL triggers fire close
			// to their deadlines; the budget spans the full DPT plus slack.
			for i := 0; i < 50; i++ {
				clk.Advance(dpt / 40)
				if err := r.WaitIdle(); err != nil {
					t.Fatal(err)
				}
			}

			for s := 0; s < r.NumShards(); s++ {
				db := r.Shard(s)
				st := db.Stats()
				if st.TombstonesPersisted.Get() == 0 {
					t.Fatalf("shard %d: no tombstone ever reached the last level", s)
				}
				if live := st.LiveTombstones.Get(); live != 0 {
					t.Fatalf("shard %d: %d tombstones still live after the DPT elapsed", s, live)
				}
				slack := int64(dpt / 8)
				if max := st.PersistenceLatency.Max(); max > dpt+slack {
					t.Fatalf("shard %d: max persistence latency %d exceeds DPT %d (+slack %d)",
						s, max, dpt, slack)
				}
				// Physical erasure: no live file in any level of this shard
				// still holds a tombstone entry.
				var residual uint64
				for _, li := range db.Levels() {
					residual += li.Tombstones
				}
				if residual != 0 {
					t.Fatalf("shard %d: %d tombstone entries physically present after settle", s, residual)
				}
			}
			storetest.CheckLedgers(t, ledgers(r, dpt))
			// And the deleted stripe is gone through the router.
			for i := 0; i < 1200; i += 7 {
				if _, err := r.Get([]byte(fmt.Sprintf("k%05d", i))); err != core.ErrNotFound {
					t.Fatalf("deleted key k%05d still readable: %v", i, err)
				}
			}
		})
	}
}
