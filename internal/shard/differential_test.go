package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/vfs"
)

// model is the reference store the sharded façade is compared against —
// the same shape as the single-engine differential model, oblivious to
// where keys physically live.
type model struct {
	data map[string][]byte
}

func newModel() *model { return &model{data: map[string][]byte{}} }

func (m *model) put(k string, v []byte) { m.data[k] = append([]byte(nil), v...) }
func (m *model) delete(k string)        { delete(m.data, k) }
func (m *model) rangeDelete(lo, hi base.DeleteKey) {
	for k, v := range m.data {
		if dk := testDK(v); dk >= lo && dk < hi {
			delete(m.data, k)
		}
	}
}

func (m *model) sortedKeys() []string {
	keys := make([]string, 0, len(m.data))
	for k := range m.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (m *model) freeze() map[string][]byte {
	frozen := make(map[string][]byte, len(m.data))
	for k, v := range m.data {
		frozen[k] = append([]byte(nil), v...)
	}
	return frozen
}

// checkRouterEquivalence compares router contents with the model via a
// merged full scan and point-get spot checks.
func checkRouterEquivalence(t *testing.T, r *Router, m *model, probe int) {
	t.Helper()
	keys := m.sortedKeys()
	got := sortedRouterKeys(t, r)
	if len(got) != len(keys) {
		t.Fatalf("router scan has %d keys, model %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("scan divergence at %d: router %q, model %q", i, got[i], keys[i])
		}
	}
	rng := rand.New(rand.NewSource(int64(probe)))
	for j := 0; j < 50 && len(keys) > 0; j++ {
		k := keys[rng.Intn(len(keys))]
		v, err := r.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if string(v) != string(m.data[k]) {
			t.Fatalf("Get(%q) value divergence", k)
		}
	}
	for j := 0; j < 20; j++ {
		k := fmt.Sprintf("absent%010d", rng.Int63())
		if _, err := r.Get([]byte(k)); err != core.ErrNotFound {
			t.Fatalf("Get(absent %q) = %v", k, err)
		}
	}
}

// checkRouterSnapshotView diffs a pinned per-shard snapshot vector against
// the model frozen at the same instant.
func checkRouterSnapshotView(t *testing.T, r *Router, snap *Snapshot, frozen map[string][]byte) {
	t.Helper()
	it, err := r.NewIter(IterOptions{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	seen := 0
	for ok := it.First(); ok; ok = it.Next() {
		want, present := frozen[string(it.Key())]
		if !present {
			t.Fatalf("snapshot scan surfaced key %q written after the snapshot", it.Key())
		}
		if string(it.Value()) != string(want) {
			t.Fatalf("snapshot value divergence at %q", it.Key())
		}
		seen++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if seen != len(frozen) {
		t.Fatalf("snapshot scan has %d keys, frozen model %d", seen, len(frozen))
	}
}

// checkRouterScanAcrossMaintenance opens a merged cross-shard iterator
// (optionally bounded or prefix-restricted), walks part of it, flushes or
// compacts every shard while the iterator is mid-flight, and finishes the
// walk. The per-shard children pin their read states at open, so the scan
// must read exactly the model state frozen at open no matter how many shard
// trees were replaced underneath it.
func checkRouterScanAcrossMaintenance(t *testing.T, r *Router, m *model, rng *rand.Rand, op int) {
	t.Helper()
	var opts IterOptions
	switch rng.Intn(3) {
	case 0: // bounded
		lo := fmt.Sprintf("key%05d", rng.Intn(400))
		hi := fmt.Sprintf("key%05d", 200+rng.Intn(400))
		if lo < hi {
			opts.LowerBound, opts.UpperBound = []byte(lo), []byte(hi)
		}
	case 1: // prefix (a decimal digit of the key space)
		opts.Prefix = []byte(fmt.Sprintf("key%02d", rng.Intn(10)))
	}
	match := func(k string) bool {
		if opts.Prefix != nil {
			return strings.HasPrefix(k, string(opts.Prefix))
		}
		if opts.LowerBound != nil && k < string(opts.LowerBound) {
			return false
		}
		if opts.UpperBound != nil && k >= string(opts.UpperBound) {
			return false
		}
		return true
	}
	var want []string
	for _, k := range m.sortedKeys() {
		if match(k) {
			want = append(want, k)
		}
	}

	it, err := r.NewIter(opts)
	if err != nil {
		t.Fatalf("op %d router scan open: %v", op, err)
	}
	defer it.Close()
	var got []string
	ok := it.First()
	cut := rng.Intn(len(want) + 1)
	for i := 0; ok && i < cut; i++ {
		got = append(got, string(it.Key()))
		ok = it.Next()
	}
	if rng.Intn(2) == 0 {
		if err := r.Flush(); err != nil {
			t.Fatalf("op %d mid-scan Flush: %v", op, err)
		}
	} else if _, err := r.MaintenanceStep(); err != nil {
		t.Fatalf("op %d mid-scan MaintenanceStep: %v", op, err)
	}
	for ; ok; ok = it.Next() {
		got = append(got, string(it.Key()))
	}
	if err := it.Error(); err != nil {
		t.Fatalf("op %d router scan: %v", op, err)
	}
	if len(got) != len(want) {
		t.Fatalf("op %d router scan across maintenance: %d keys, want %d", op, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d router scan entry %d: %s != %s", op, i, got[i], want[i])
		}
	}
}

// TestShardedModelDifferentialStress drives the sharded façade with the
// same randomized op soup as the single-engine differential test — puts,
// deletes, batches, cross-shard secondary range deletes, scans, snapshot
// vectors, maintenance, and full reopens — and continuously diffs it
// against the in-memory model at 1, 2, and 4 shards. The model knows
// nothing about routing, so any misrouted, lost, or resurrected key is a
// divergence. Seeds are fixed so every failure reproduces; the "Stress"
// name places it under the race-detector gate.
func TestShardedModelDifferentialStress(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, seed := range []int64{1, 7, 42} {
			shards, seed := shards, seed
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				t.Parallel()
				runShardedDifferentialStress(t, shards, seed)
			})
		}
	}
}

func runShardedDifferentialStress(t *testing.T, shards int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fs := vfs.NewMemFS()
	clk := &base.LogicalClock{}
	opts := testOptions(fs, clk, shards)
	r, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { r.Close() }()
	m := newModel()

	const ops = 4000
	keySpace := 600
	key := func() string { return fmt.Sprintf("key%05d", rng.Intn(keySpace)) }

	type pinned struct {
		snap   *Snapshot
		frozen map[string][]byte
	}
	var pins []pinned

	for i := 0; i < ops; i++ {
		clk.Advance(base.Duration(rng.Intn(1000)))
		switch p := rng.Intn(100); {
		case p < 45: // put
			k := key()
			v := testValue(uint64(rng.Intn(1000)), i)
			if err := r.Put([]byte(k), v); err != nil {
				t.Fatalf("op %d Put: %v", i, err)
			}
			m.put(k, v)
		case p < 60: // delete (existing or absent)
			k := key()
			if err := r.Delete([]byte(k)); err != nil {
				t.Fatalf("op %d Delete: %v", i, err)
			}
			m.delete(k)
		case p < 70: // batch spanning shards
			b := core.NewBatch()
			type bop struct {
				k   string
				v   []byte
				del bool
			}
			var staged []bop
			for j := 0; j < 1+rng.Intn(8); j++ {
				k := key()
				if rng.Intn(4) == 0 {
					b.Delete([]byte(k))
					staged = append(staged, bop{k: k, del: true})
				} else {
					v := testValue(uint64(rng.Intn(1000)), i*100+j)
					b.Put([]byte(k), v)
					staged = append(staged, bop{k: k, v: v})
				}
			}
			if err := r.Apply(b); err != nil {
				t.Fatalf("op %d Apply: %v", i, err)
			}
			for _, o := range staged {
				if o.del {
					m.delete(o.k)
				} else {
					m.put(o.k, o.v)
				}
			}
		case p < 75: // cross-shard secondary range delete
			lo := base.DeleteKey(rng.Intn(900))
			hi := lo + base.DeleteKey(1+rng.Intn(100))
			if err := r.DeleteSecondaryRange(lo, hi); err != nil {
				t.Fatalf("op %d DeleteSecondaryRange: %v", i, err)
			}
			m.rangeDelete(lo, hi)
		case p < 82: // point-get spot check
			k := key()
			v, err := r.Get([]byte(k))
			want, present := m.data[k]
			if present {
				if err != nil {
					t.Fatalf("op %d Get(%q): %v", i, k, err)
				}
				if string(v) != string(want) {
					t.Fatalf("op %d Get(%q) divergence", i, k)
				}
			} else if err != core.ErrNotFound {
				t.Fatalf("op %d Get(absent %q) = %v", i, k, err)
			}
		case p < 85: // cross-shard range scan with maintenance mid-flight
			checkRouterScanAcrossMaintenance(t, r, m, rng, i)
		case p < 88: // flush every shard
			if err := r.Flush(); err != nil {
				t.Fatalf("op %d Flush: %v", i, err)
			}
		case p < 94: // one maintenance step across shards
			if _, err := r.MaintenanceStep(); err != nil {
				t.Fatalf("op %d MaintenanceStep: %v", i, err)
			}
		case p < 97: // pin a snapshot vector (bounded; released below)
			if len(pins) < 3 {
				pins = append(pins, pinned{snap: r.NewSnapshot(), frozen: m.freeze()})
			}
		default: // verify + release the oldest pinned snapshot
			if len(pins) > 0 {
				checkRouterSnapshotView(t, r, pins[0].snap, pins[0].frozen)
				pins[0].snap.Release()
				pins = pins[1:]
			}
		}

		if i%800 == 799 {
			checkRouterEquivalence(t, r, m, int(seed)*1000+i)
		}
		// Two full reopens per run: WAL replay at 1/3, compacted state at
		// 2/3; the second reopen also adopts the persisted shard count.
		if i == ops/3 || i == 2*ops/3 {
			for _, pin := range pins {
				checkRouterSnapshotView(t, r, pin.snap, pin.frozen)
				pin.snap.Release()
			}
			pins = nil
			if i == 2*ops/3 {
				if err := r.CompactAll(); err != nil {
					t.Fatalf("op %d CompactAll: %v", i, err)
				}
				opts.Shards = 0
			}
			if err := r.Close(); err != nil {
				t.Fatalf("op %d Close: %v", i, err)
			}
			r, err = Open("db", opts)
			if err != nil {
				t.Fatalf("op %d reopen: %v", i, err)
			}
			if n := r.NumShards(); n != shards {
				t.Fatalf("op %d reopen came back with %d shards, want %d", i, n, shards)
			}
			checkRouterEquivalence(t, r, m, int(seed)*1000+i)
		}
	}
	for _, pin := range pins {
		checkRouterSnapshotView(t, r, pin.snap, pin.frozen)
		pin.snap.Release()
	}
	checkRouterEquivalence(t, r, m, int(seed))
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	checkTombstoneLedgers(t, r, int64(opts.Compaction.DPT))
}

// checkTombstoneLedgers is core's checkTombstoneLedger over the exported
// surface, per shard: with the memtables flushed and maintenance idle, the
// tombstone ledger must agree with the tree it describes, and the late count
// with the side of the DPT (0: none) the recorded maximum is on.
func checkTombstoneLedgers(t *testing.T, r *Router, dpt int64) {
	t.Helper()
	for i, s := range r.Stats() {
		var resident int64
		for _, li := range r.Shard(i).Levels() {
			resident += int64(li.Tombstones)
		}
		live, n, late := s.LiveTombstones.Get(), s.PersistenceLatency.Count(), s.TombstonesPersistedLate.Get()
		if live != resident || live < 0 {
			t.Fatalf("shard %d ledger: LiveTombstones = %d, tree holds %d", i, live, resident)
		}
		if want := s.TombstonesPersisted.Get() + s.RangeTombstonesPersisted.Get(); n != want {
			t.Fatalf("shard %d ledger: %d latency samples for %d persisted tombstones", i, n, want)
		}
		if max := s.PersistenceLatency.Max(); late > n || (dpt > 0 && (late == 0) != (max <= dpt)) {
			t.Fatalf("shard %d ledger: %d late of %d persisted, max latency %d against DPT %d", i, late, n, max, dpt)
		}
	}
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
					err = r.Put([]byte(k), testValue(uint64(i), i))
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
			checkTombstoneLedgers(t, r, dpt)
			// And the deleted stripe is gone through the router.
			for i := 0; i < 1200; i += 7 {
				if _, err := r.Get([]byte(fmt.Sprintf("k%05d", i))); err != core.ErrNotFound {
					t.Fatalf("deleted key k%05d still readable: %v", i, err)
				}
			}
		})
	}
}
