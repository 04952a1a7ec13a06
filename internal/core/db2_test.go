package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/manifest"
	"repro/internal/storetest"
	"repro/internal/vfs"
)

func mustOpen(t *testing.T, opts Options) *DB {
	t.Helper()
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestSnapshotIsolation(t *testing.T) {
	clk := &base.LogicalClock{}
	d := mustOpen(t, testOptions(vfs.NewMemFS(), clk))

	if err := d.Put([]byte("k"), storetest.Value(1, 1)); err != nil {
		t.Fatal(err)
	}
	snap := d.NewSnapshot()
	defer snap.Release()

	// Overwrite and delete after the snapshot.
	if err := d.Put([]byte("k"), storetest.Value(2, 2)); err != nil {
		t.Fatal(err)
	}
	snap2 := d.NewSnapshot()
	defer snap2.Release()
	if err := d.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}

	// Even across flush + full compaction, both snapshots keep their
	// views.
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}

	if v, err := d.GetAt([]byte("k"), snap); err != nil || base.DeleteKey(1) != storetest.DeleteKey(v) {
		t.Fatalf("snap1 sees %v, %v", v, err)
	}
	if v, err := d.GetAt([]byte("k"), snap2); err != nil || base.DeleteKey(2) != storetest.DeleteKey(v) {
		t.Fatalf("snap2 sees %v, %v", v, err)
	}
	if _, err := d.Get([]byte("k")); err != ErrNotFound {
		t.Fatalf("latest read sees %v", err)
	}
}

func TestSnapshotReleaseUnblocksCleanup(t *testing.T) {
	clk := &base.LogicalClock{}
	opts := testOptions(vfs.NewMemFS(), clk)
	opts.Compaction.DPT = 100
	opts.Compaction.Picker = compaction.PickFADE
	d := mustOpen(t, opts)

	if err := d.Put([]byte("k"), storetest.Value(1, 1)); err != nil {
		t.Fatal(err)
	}
	snap := d.NewSnapshot()
	if err := d.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(1000)
	if err := d.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().TombstonesPersisted.Get() != 0 {
		t.Fatal("tombstone disposed while a snapshot needs the old value")
	}
	snap.Release()
	clk.Advance(1000)
	// Force the tombstone through (TTL trigger will fire again).
	if err := d.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().TombstonesPersisted.Get() != 1 {
		t.Fatalf("tombstone not disposed after release: persisted=%d live=%d",
			d.Stats().TombstonesPersisted.Get(), d.Stats().LiveTombstones.Get())
	}
}

// TestSnapshotDoubleReleaseKeepsOtherPin: two snapshots at one sequence
// number; releasing the first twice must leave the second's pin in place, so
// compaction keeps the version it reads.
func TestSnapshotDoubleReleaseKeepsOtherPin(t *testing.T) {
	d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	if err := d.Put([]byte("k"), storetest.Value(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	s1, s2 := d.NewSnapshot(), d.NewSnapshot()
	defer s2.Release()
	if err := d.Put([]byte("k"), storetest.Value(2, 2)); err != nil {
		t.Fatal(err)
	}
	s1.Release()
	s1.Release()
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if v, err := d.GetAt([]byte("k"), s2); err != nil || storetest.DeleteKey(v) != 1 {
		t.Fatalf("s2 reads %v, %v; want v1", v, err)
	}
}

// TestDPTInvariant: after quiescing with the clock advanced past every
// deadline, no live file may hold a tombstone whose cumulative TTL has
// expired, and no tombstone's measured persistence may exceed the DPT plus
// scheduler slack.
func TestDPTInvariant(t *testing.T) {
	clk := &base.LogicalClock{}
	opts := testOptions(vfs.NewMemFS(), clk)
	const dpt = 4000
	opts.Compaction.DPT = dpt
	opts.Compaction.Picker = compaction.PickFADE
	d := mustOpen(t, opts)

	for i := 0; i < 3000; i++ {
		clk.Advance(1)
		k := fmt.Sprintf("k%05d", i%1200)
		var err error
		if i%5 == 4 {
			err = d.Delete([]byte(k))
		} else {
			err = d.Put([]byte(k), storetest.Value(uint64(i), i))
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			if err := d.WaitIdle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// Quiesce in fine steps so TTL triggers fire close to their
	// deadlines.
	for i := 0; i < 50; i++ {
		clk.Advance(dpt / 40)
		if err := d.WaitIdle(); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.LiveTombstones.Get() != 0 {
		t.Fatalf("%d tombstones still live after DPT elapsed", st.LiveTombstones.Get())
	}
	// All persisted within DPT plus the stepping slack.
	slack := int64(dpt / 8)
	if max := st.PersistenceLatency.Max(); max > dpt+slack {
		t.Fatalf("max persistence latency %d exceeds DPT %d (+slack %d)", max, dpt, slack)
	}
	// Structural check: no live file has an expired tombstone.
	v := d.vs.Current()
	depth := v.MaxPopulatedLevel()
	now := clk.Now()
	v.AllFiles(func(l int, f *manifest.FileMetadata) {
		if !f.HasTombstones {
			return
		}
		deadline := f.OldestTombstone + base.Timestamp(dpt)
		if now > deadline {
			t.Errorf("file %s at L%d holds a tombstone overdue by %d (depth %d)",
				f.FileNum, l, now-deadline, depth)
		}
	})
}

// TestDPTPolicySweepStress checks the FADE delete-persistence guarantee
// under every layout policy: tombstones must reach the last level and
// physically erase (no tombstone entry survives in any live file) within
// the DPT regardless of whether the tree is leveled, size-tiered, or
// lazy-leveled. Seeds and clocks are deterministic; the "Stress" name
// places the sweep under the race-detector gate.
func TestDPTPolicySweepStress(t *testing.T) {
	policies := []compaction.PolicyKind{
		compaction.PolicyLeveled,
		compaction.PolicySizeTiered,
		compaction.PolicyLazyLeveling,
	}
	for _, kind := range policies {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			clk := &base.LogicalClock{}
			opts := testOptions(vfs.NewMemFS(), clk)
			const dpt = 4000
			opts.Compaction.Policy = kind
			opts.Compaction.DPT = dpt
			opts.Compaction.Picker = compaction.PickFADE
			d := mustOpen(t, opts)

			// Build a multi-level tree, then delete a dedicated stripe of
			// keys that are never written again.
			for i := 0; i < 3000; i++ {
				clk.Advance(1)
				k := fmt.Sprintf("k%05d", i%1200)
				var err error
				if i%5 == 4 {
					err = d.Delete([]byte(k))
				} else {
					err = d.Put([]byte(k), storetest.Value(uint64(i), i))
				}
				if err != nil {
					t.Fatal(err)
				}
				if i%97 == 0 {
					if err := d.WaitIdle(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 1200; i += 7 {
				clk.Advance(1)
				if err := d.Delete([]byte(fmt.Sprintf("k%05d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			// Quiesce in fine steps so TTL triggers fire close to their
			// deadlines; the budget spans the full DPT plus slack.
			for i := 0; i < 50; i++ {
				clk.Advance(dpt / 40)
				if err := d.WaitIdle(); err != nil {
					t.Fatal(err)
				}
			}

			st := d.Stats()
			if st.TombstonesPersisted.Get() == 0 {
				t.Fatal("no tombstone ever reached the last level")
			}
			if live := st.LiveTombstones.Get(); live != 0 {
				t.Fatalf("%d tombstones still live after the DPT elapsed under %s", live, kind)
			}
			slack := int64(dpt / 8)
			if max := st.PersistenceLatency.Max(); max > dpt+slack {
				t.Fatalf("max persistence latency %d exceeds DPT %d (+slack %d) under %s", max, dpt, slack, kind)
			}
			// Physical erasure: no live file in any run of any level still
			// holds a tombstone entry.
			var residual uint64
			d.vs.Current().AllFiles(func(l int, f *manifest.FileMetadata) {
				residual += f.NumDeletes
			})
			if residual != 0 {
				t.Fatalf("%d tombstone entries physically present after settle under %s", residual, kind)
			}
			// And the deleted stripe is actually gone.
			for i := 0; i < 1200; i += 7 {
				if _, err := d.Get([]byte(fmt.Sprintf("k%05d", i))); err != ErrNotFound {
					t.Fatalf("deleted key k%05d still readable under %s: %v", i, kind, err)
				}
			}
		})
	}
}

func TestBaselineLeavesTombstones(t *testing.T) {
	clk := &base.LogicalClock{}
	d := mustOpen(t, testOptions(vfs.NewMemFS(), clk)) // no DPT

	// Settle data into deeper levels, then delete a stripe.
	for i := 0; i < 2000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%05d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i += 10 {
		if err := d.Delete([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(1 << 40)
	if err := d.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if live := d.Stats().LiveTombstones.Get(); live == 0 {
		t.Fatal("delete-oblivious baseline should leave tombstones lingering; did a trigger fire unexpectedly?")
	}
}

func TestIterBounds(t *testing.T) {
	d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	for i := 0; i < 100; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%03d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	it, err := d.NewIter(IterOptions{LowerBound: []byte("k020"), UpperBound: []byte("k030")})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []string
	for ok := it.First(); ok; ok = it.Next() {
		got = append(got, string(it.Key()))
	}
	if len(got) != 10 || got[0] != "k020" || got[9] != "k029" {
		t.Fatalf("bounded scan = %v", got)
	}
	// SeekGE below the lower bound clamps.
	if !it.SeekGE([]byte("a")) || string(it.Key()) != "k020" {
		t.Fatalf("clamped seek landed on %q", it.Key())
	}
	// SeekGE beyond the upper bound is invalid.
	if it.SeekGE([]byte("k030")) {
		t.Fatal("seek at upper bound should be invalid")
	}
}

func TestIterSkipsTombstonesAndOldVersions(t *testing.T) {
	d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	d.Put([]byte("a"), storetest.Value(1, 1))
	d.Put([]byte("a"), storetest.Value(2, 2)) // newer version
	d.Put([]byte("b"), storetest.Value(3, 3))
	d.Delete([]byte("b"))
	d.Put([]byte("c"), storetest.Value(4, 4))
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	d.Put([]byte("d"), storetest.Value(5, 5)) // in memtable

	it, err := d.NewIter(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []string
	for ok := it.First(); ok; ok = it.Next() {
		got = append(got, fmt.Sprintf("%s=%d", it.Key(), storetest.DeleteKey(it.Value())))
	}
	want := "[a=2 c=4 d=5]"
	if fmt.Sprint(got) != want {
		t.Fatalf("scan = %v, want %s", got, want)
	}
}

func TestGetAfterCloseFails(t *testing.T) {
	d, err := Open("db", testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get after close = %v", err)
	}
	if err := d.Put([]byte("k"), nil); err != ErrClosed {
		t.Fatalf("Put after close = %v", err)
	}
	if err := d.Close(); err != ErrClosed {
		t.Fatalf("double close = %v", err)
	}
}

func TestDeleteSecondaryRangeValidation(t *testing.T) {
	opts := testOptions(vfs.NewMemFS(), &base.LogicalClock{})
	opts.DeleteKeyFunc = nil
	d := mustOpen(t, opts)
	if err := d.DeleteSecondaryRange(1, 2); err == nil {
		t.Fatal("range delete without extractor should fail")
	}

	opts2 := testOptions(vfs.NewMemFS(), &base.LogicalClock{})
	d2 := mustOpen(t, opts2)
	if err := d2.DeleteSecondaryRange(5, 5); err == nil {
		t.Fatal("empty range should fail")
	}
}

func TestKiWiRequiresExtractor(t *testing.T) {
	opts := testOptions(vfs.NewMemFS(), &base.LogicalClock{})
	opts.PagesPerTile = 4
	opts.DeleteKeyFunc = nil
	if _, err := Open("db", opts); err == nil {
		t.Fatal("KiWi without extractor should be rejected")
	}
}

func TestStatsAccounting(t *testing.T) {
	clk := &base.LogicalClock{}
	d := mustOpen(t, testOptions(vfs.NewMemFS(), clk))
	for i := 0; i < 3000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%06d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.BytesIngested.Get() == 0 || st.BytesFlushed.Get() == 0 {
		t.Fatal("ingest/flush accounting missing")
	}
	if wa := st.WriteAmplification(); wa < 1 {
		t.Fatalf("WA %.2f < 1 after flushes", wa)
	}
	if st.Flushes.Get() == 0 {
		t.Fatal("flush count missing")
	}
	if d.DiskSize() == 0 {
		t.Fatal("DiskSize zero with data on disk")
	}
	levels := d.Levels()
	files := 0
	for _, li := range levels {
		files += li.Files
	}
	if files == 0 {
		t.Fatal("Levels reports no files")
	}
	if st.String() == "" {
		t.Fatal("Stats.String empty")
	}
}

func TestLargeValuesRoundtrip(t *testing.T) {
	d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	big := make([]byte, 200<<10) // bigger than the memtable budget
	for i := range big {
		big[i] = byte(i)
	}
	copy(big, storetest.Value(1, 1)) // keep a valid delete-key prefix
	if err := d.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err := d.Get([]byte("big"))
	if err != nil || len(v) != len(big) {
		t.Fatalf("big value lost: %d bytes, %v", len(v), err)
	}
	for i := range v {
		if v[i] != big[i] {
			t.Fatalf("big value corrupt at %d", i)
		}
	}
}

func TestEmptyDB(t *testing.T) {
	d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	if _, err := d.Get([]byte("k")); err != ErrNotFound {
		t.Fatalf("empty Get = %v", err)
	}
	it, err := d.NewIter(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if it.First() {
		t.Fatal("empty iteration yielded a key")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
}

func TestTieringAccumulatesRuns(t *testing.T) {
	clk := &base.LogicalClock{}
	opts := testOptions(vfs.NewMemFS(), clk)
	opts.Compaction.Policy = compaction.PolicySizeTiered
	d := mustOpen(t, opts)
	for i := 0; i < 20_000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%07d", i%6000)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			if err := d.WaitIdle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	levels := d.Levels()
	multi := false
	for l := 1; l < len(levels); l++ {
		if levels[l].Runs > 1 {
			multi = true
		}
	}
	if !multi {
		t.Log("no level held multiple runs at quiescence (acceptable but unusual for tiering)")
	}
	// Reads still correct through multiple runs.
	if _, err := d.Get([]byte("k0000001")); err != nil {
		t.Fatalf("tiered read: %v", err)
	}
}

func TestTrivialMoveSkipsRewrite(t *testing.T) {
	clk := &base.LogicalClock{}
	opts := testOptions(vfs.NewMemFS(), clk)
	d := mustOpen(t, opts)
	// Disjoint key ranges so compactions can move files without merging.
	for i := 0; i < 6000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%07d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
		if i%200 == 0 {
			if err := d.WaitIdle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().TrivialMoves.Get() == 0 {
		t.Log("no trivial moves occurred (workload-dependent; not a failure)")
	}
}

// TestCompactionStageWaitsBooked: a merge's two stage waits reach Stats and
// the metrics registry, which is how an operator tells a writer-bound job from
// a merge-bound one.
func TestCompactionStageWaitsBooked(t *testing.T) {
	d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	for round := 0; round < 2; round++ {
		for i := 0; i < 500; i++ {
			if err := d.Put([]byte(fmt.Sprintf("k%04d", i)), storetest.Value(uint64(i), i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.CompactBytesWritten.Get() == 0 {
		t.Fatal("fixture: no merge ran")
	}
	if st.CompactMergeWaitNanos.Get()+st.CompactWriterWaitNanos.Get() == 0 {
		t.Fatal("a merge ran and neither stage wait was booked")
	}
	var sb strings.Builder
	if _, err := d.Registry().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"acheron_compact_merge_wait_ns_total", "acheron_compact_writer_wait_ns_total"} {
		if !strings.Contains(sb.String(), "\n"+name+" ") {
			t.Errorf("the registry does not export %s", name)
		}
	}
}
