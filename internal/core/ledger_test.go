package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/iterator"
	"repro/internal/manifest"
	"repro/internal/memtable"
	"repro/internal/storetest"
	"repro/internal/vfs"
	"repro/internal/vfs/errorfs"
)

// ledger reads d's tombstone ledger beside the tombstones its memtables and
// files hold.
func ledger(d *DB) storetest.Ledger {
	d.mu.Lock()
	resident := d.mem.NumDeletes()
	for _, e := range d.imm {
		resident += e.mem.NumDeletes()
	}
	d.mu.Unlock()
	for _, li := range d.Levels() {
		resident += int64(li.Tombstones)
	}
	s := d.Stats()
	return storetest.Ledger{
		Resident:   resident,
		Live:       s.LiveTombstones.Get(),
		Persisted:  s.TombstonesPersisted.Get() + s.RangeTombstonesPersisted.Get(),
		Samples:    s.PersistenceLatency.Count(),
		Late:       s.TombstonesPersistedLate.Get(),
		MaxLatency: s.PersistenceLatency.Max(),
		DPT:        int64(d.opts.Compaction.DPT),
	}
}

// checkTombstoneLedger asserts, at quiescence, that d's tombstone ledger
// agrees with the tree and memtables it describes.
func checkTombstoneLedger(t testing.TB, d *DB) {
	t.Helper()
	storetest.CheckLedgers(t, []storetest.Ledger{ledger(d)})
}

// TestFailedCompactionBooksNoTombstones: the ledger is booked after the
// install, so a compaction that fails — at the manifest commit or mid-merge —
// leaves it exactly as it was, and the retry books each tombstone once. (With
// the ledger booked from inside the merge loop the failed attempt already read
// persisted = 500, live = 0 with all 500 tombstones on disk, and the retry
// made that persisted = 1000, live = -500.)
func TestFailedCompactionBooksNoTombstones(t *testing.T) {
	const keys, deletes = 2000, 500
	for name, rule := range map[string]*errorfs.Rule{
		"manifest-sync":       {Ops: []errorfs.Op{errorfs.OpSync}, PathGlob: "MANIFEST-*", Kind: errorfs.FaultTransient},
		"sst-write-mid-merge": {Ops: []errorfs.Op{errorfs.OpWrite}, PathGlob: "*.sst", Countdown: 5, Kind: errorfs.FaultTransient},
	} {
		t.Run(name, func(t *testing.T) {
			efs := errorfs.Wrap(vfs.NewMemFS(), 1)
			clk := &base.LogicalClock{}
			opts := testOptions(efs, clk)
			opts.MemTableBytes = 1 << 20 // the test flushes by hand
			d := mustOpen(t, opts)
			for i := 0; i < keys; i++ {
				if err := d.Put([]byte(fmt.Sprintf("k%05d", i)), storetest.Value(uint64(i), 0)); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < deletes; i++ {
				clk.Advance(1)
				if err := d.Delete([]byte(fmt.Sprintf("k%05d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			s := d.Stats()
			ledger := func() [3]int64 {
				return [3]int64{s.TombstonesPersisted.Get(), s.LiveTombstones.Get(), s.PersistenceLatency.Count()}
			}
			if got := ledger(); got != [3]int64{0, deletes, 0} {
				t.Fatalf("ledger before any compaction: persisted/live/samples = %v", got)
			}

			fault := efs.Add(rule)
			if _, err := d.MaintenanceStep(); err == nil || fault.Fired() == 0 {
				t.Fatalf("step met no fault: err=%v fired=%d", err, fault.Fired())
			}
			if got := ledger(); got != [3]int64{0, deletes, 0} {
				t.Fatalf("failed job booked tombstones: persisted/live/samples = %v", got)
			}
			checkTombstoneLedger(t, d)

			if err := d.WaitIdle(); err != nil {
				t.Fatalf("retry did not recover: %v", err)
			}
			if got := ledger(); got != [3]int64{deletes, 0, deletes} || s.DeletesIssued.Get() != deletes {
				t.Fatalf("after the retry: persisted/live/samples = %v, issued %d", got, s.DeletesIssued.Get())
			}
			checkTombstoneLedger(t, d)
		})
	}
}

// TestLiveTombstonesSeededOnOpen: the live gauge moves by increments, so a
// reopened store must start it from the tombstones the recovered tree holds —
// not from zero, which then went negative as they were compacted away.
func TestLiveTombstonesSeededOnOpen(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := testOptions(fs, &base.LogicalClock{})
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 500
	for i := 0; i < keys; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%05d", i)), storetest.Value(uint64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	// Half of the deletes reach a table before the close, half only the WAL.
	for i := 0; i < keys; i++ {
		if i == keys/2 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Delete([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = mustOpen(t, opts)
	if live := d.Stats().LiveTombstones.Get(); live != keys {
		t.Fatalf("LiveTombstones = %d after reopen, want the %d the tree holds", live, keys)
	}
	checkTombstoneLedger(t, d)
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if live := d.Stats().LiveTombstones.Get(); live != 0 {
		t.Fatalf("LiveTombstones = %d after compacting every tombstone away, want 0", live)
	}
	checkTombstoneLedger(t, d)
}

// TestLateCountIsExact: lateness is compared with the deadline sample by
// sample, so a tombstone one tick over counts and one exactly on it does not —
// both sit in the same power-of-two histogram bucket, where a bucketed count
// sees neither.
func TestLateCountIsExact(t *testing.T) {
	const dpt = 1000
	clk := &base.LogicalClock{}
	opts := testOptions(vfs.NewMemFS(), clk)
	opts.Compaction.DPT = dpt
	d := mustOpen(t, opts)
	for _, k := range []string{"late", "on-time"} {
		if err := d.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
		clk.Advance(1)
	}
	clk.Advance(dpt - 1) // "late" is now dpt+1 old, "on-time" dpt
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if n, late, max := s.PersistenceLatency.Count(), s.TombstonesPersistedLate.Get(), s.PersistenceLatency.Max(); n != 2 || late != 1 || max != dpt+1 {
		t.Fatalf("samples = %d, late = %d, max = %d; want 2, 1, %d", n, late, max, dpt+1)
	}
	if got := s.PersistedWithin(); got != 0.5 {
		t.Fatalf("PersistedWithin = %v, want 0.5", got)
	}
	checkTombstoneLedger(t, d)
}

// tombstoneCensus maps every tombstone resident in d's memtables and files,
// point and range alike, from its sequence number to its creation time — read
// from the bytes, not from the engine's counters. Files are immutable, so
// each is read once and remembered in perFile.
func tombstoneCensus(t testing.TB, d *DB, perFile map[base.FileNum]map[base.SeqNum]base.Timestamp) map[base.SeqNum]base.Timestamp {
	t.Helper()
	census := map[base.SeqNum]base.Timestamp{}
	scan := func(into map[base.SeqNum]base.Timestamp, it iterator.Internal, rts []base.RangeTombstone) {
		for valid := it.First(); valid; valid = it.Next() {
			if ik := it.Key(); ik.Kind() == base.KindDelete {
				into[ik.SeqNum()] = base.DecodeTombstoneValue(it.Value())
			}
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
		for _, rt := range rts {
			into[rt.Seq] = rt.CreatedAt
		}
	}
	d.mu.Lock()
	mems := []*memtable.MemTable{d.mem}
	for _, e := range d.imm {
		mems = append(mems, e.mem)
	}
	v := d.vs.Current()
	d.mu.Unlock()
	for _, m := range mems {
		scan(census, m.NewIter(), m.RangeTombstones())
	}
	v.AllFiles(func(_ int, f *manifest.FileMetadata) {
		if !f.HasTombstones {
			return
		}
		if perFile[f.FileNum] == nil {
			r, err := d.cache.get(f.FileNum)
			if err != nil {
				t.Fatal(err)
			}
			perFile[f.FileNum] = map[base.SeqNum]base.Timestamp{}
			scan(perFile[f.FileNum], r.NewIter(), r.RangeTombstones())
		}
		for seq, ts := range perFile[f.FileNum] {
			census[seq] = ts
		}
	})
	return census
}

// TestDeeperTreeRegimeMissesDPT pins, on the logical clock, the regime the
// kiwi_retention benchmark enters on some seeds (ROADMAP item 1(b)): KiWi
// tiles, a rolling DeleteSecondaryRange over a sliding window, DPT = window/2.
// A small tail file at the deepest level, overlapped by no eviction from
// above, keeps entries the range tombstones cover, so the tombstones cannot
// retire; when the oldest outlives the DPT the TTL trigger pushes its file one
// level deeper, which re-partitions every level's budget and cascades to the
// last level, where no TTL applies at all. It asserts what is true today —
// max/DPT > 1.5, late > 0 — so that closing 1(b) inverts it; and it checks the
// ledger against a second, exact pass of its own: a census of the tombstones
// in the tree after every maintenance round, from which it counts the
// samples, the late ones and the maximum itself. No deleted key is written or
// deleted again, so no tombstone is superseded and every one that leaves the
// tree was disposed of in that round, at that round's clock reading.
func TestDeeperTreeRegimeMissesDPT(t *testing.T) {
	const (
		window = 5000
		dpt    = window / 2
		ops    = 40_000
		keys   = 10_000
	)
	type tally struct{ samples, late, max int64 }
	type outcome struct {
		tally
		depth, deepenedAt int // the deepest populated level, and the tick it was reached
	}
	run := func() outcome {
		clk := &base.LogicalClock{}
		opts := testOptions(vfs.NewMemFS(), clk)
		opts.PagesPerTile = 4
		opts.MemTableBytes = 13 << 10
		opts.Compaction = compaction.Options{
			Policy: compaction.PolicyLeveled, Picker: compaction.PickFADE, DPT: dpt,
			BaseLevelBytes: 52 << 10, TargetFileBytes: 50_000,
		}
		d := mustOpen(t, opts)
		rng := rand.New(rand.NewSource(1))
		var recent []int
		retired := map[int]bool{}
		var want tally
		var got outcome
		perFile := map[base.FileNum]map[base.SeqNum]base.Timestamp{}
		resident := map[base.SeqNum]base.Timestamp{}
		for tick := 1; tick <= ops; tick++ {
			clk.Advance(1)
			switch p := rng.Intn(1000); {
			case tick%20 == 0 && tick > window: // retention: all older than the window goes
				if err := d.DeleteSecondaryRange(0, base.DeleteKey(tick-window)); err != nil {
					t.Fatal(err)
				}
			case p < 600:
				if k := rng.Intn(keys); !retired[k] {
					if err := d.Put([]byte(fmt.Sprintf("key%06d", k)), storetest.Value(uint64(tick), k)); err != nil {
						t.Fatal(err)
					}
					recent = append(recent, k)
				}
			case p < 680 && len(recent) > 0:
				i := len(recent) - 1 - rng.Intn(min(len(recent), 64))
				k := recent[i]
				recent = append(recent[:i], recent[i+1:]...)
				if !retired[k] {
					retired[k] = true
					if err := d.Delete([]byte(fmt.Sprintf("key%06d", k))); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tick%64 != 0 {
				continue
			}
			before := tombstoneCensus(t, d, perFile) // with what the memtable gained since the last round
			for seq, ts := range before {
				resident[seq] = ts
			}
			if err := d.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			after := tombstoneCensus(t, d, perFile)
			for seq, ts := range resident {
				if _, ok := after[seq]; ok {
					continue
				}
				delete(resident, seq)
				lat := int64(clk.Now() - ts)
				want.samples++
				want.max = max(want.max, lat)
				if lat > dpt {
					want.late++
				}
			}
			if depth := d.vs.Current().MaxPopulatedLevel(); depth > got.depth {
				got.depth, got.deepenedAt = depth, tick
			}
		}
		s := d.Stats()
		got.tally = tally{s.PersistenceLatency.Count(), s.TombstonesPersistedLate.Get(), s.PersistenceLatency.Max()}
		if n := s.TombstonesSuperseded.Get(); n != 0 {
			t.Fatalf("%d tombstones superseded: the workload must not rewrite a deleted key", n)
		}
		if got.tally != want {
			t.Fatalf("ledger says {samples, late, max} = %v, the census of the tree %v", got.tally, want)
		}
		checkTombstoneLedger(t, d)
		return got
	}

	first := run()
	if second := run(); second != first {
		t.Fatalf("not deterministic: %+v then %+v", first, second)
	}
	t.Logf("max/DPT = %.3f, %d of %d late, depth %d reached at tick %d", float64(first.max)/dpt, first.late, first.samples, first.depth, first.deepenedAt)
	if first.depth <= 2 || first.deepenedAt <= window {
		t.Fatalf("the tree did not gain a level mid-run: depth %d at tick %d", first.depth, first.deepenedAt)
	}
	// What is true today, to be inverted by ROADMAP 1(b).
	if first.late == 0 || float64(first.max) <= 1.5*dpt {
		t.Fatalf("the deeper-tree regime no longer overshoots: max/DPT = %.3f, %d late — if 1(b) closed it, invert this test",
			float64(first.max)/dpt, first.late)
	}
}
