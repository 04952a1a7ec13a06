package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/base"
	"repro/internal/manifest"
	"repro/internal/storetest"
	"repro/internal/vfs"
	"repro/internal/vfs/errorfs"
)

// TestCrashRecoveryTorture drives a randomized point/range-delete workload
// over errorfs+MemFS, crashes at a random injection point (a CrashClone
// snapshot keeps only synced bytes), reopens from the wreckage, and checks:
//
//   - every write acknowledged before the crash point survives recovery;
//   - recovery replays nothing the crash image's tables already hold: no
//     table it writes holds a sequence number at or below the largest one
//     in a table the image's manifest lists;
//   - no unacknowledged batch resurfaces (recovered state matches the model
//     of fully-acked ops, optionally plus the single in-flight op);
//   - VerifyChecksums passes over the recovered store;
//   - a reopen removes no further files (the recovery open already cleaned
//     every orphan);
//   - CompactAll over the recovered state preserves equivalence and the
//     store closes cleanly.
//
// Fixed seeds keep the matrix deterministic for CI (`make race`).
func TestCrashRecoveryTorture(t *testing.T) {
	styles := []struct {
		name string
		ops  []errorfs.Op
		glob string
	}{
		{"wal-sync", []errorfs.Op{errorfs.OpSync}, "*.log"},
		{"sst-write", []errorfs.Op{errorfs.OpWrite}, "*.sst"},
		{"manifest-sync", []errorfs.Op{errorfs.OpSync}, "MANIFEST-*"},
		{"any-write", []errorfs.Op{errorfs.OpWrite}, ""},
		// After a flush's manifest append, before its segment is removed.
		{"wal-remove", []errorfs.Op{errorfs.OpRemove}, "*.log"},
	}
	for _, style := range styles {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed=%d", style.name, seed), func(t *testing.T) {
				tortureRound(t, style.ops, style.glob, seed)
			})
		}
	}
}

func tortureRound(t *testing.T, ops []errorfs.Op, glob string, seed int64) {
	mem := vfs.NewMemFS()
	efs := errorfs.Wrap(mem, seed)
	opts := testOptions(efs, &base.LogicalClock{})
	opts.SyncWrites = true // every acked write is WAL-synced, hence durable
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))

	// Install the crash point only after Open so recovery's own I/O does
	// not consume the countdown. FaultNone: the hook observes, never errors.
	// The hook runs inside the faulting op, so the snapshot catches the
	// store mid-write: acked ops durable, the in-flight op possibly torn.
	var crash *vfs.MemFS
	efs.Add(&errorfs.Rule{
		Ops:       ops,
		PathGlob:  glob,
		Countdown: 1 + rng.Intn(40),
		Kind:      errorfs.FaultNone,
		Hook: func(errorfs.Op, string) {
			if crash == nil {
				crash = mem.CrashClone()
			}
		},
	})

	// Single-threaded workload: acked holds every op fully acked before the
	// crash point fired; if the hook fired mid-op, that one op is ambiguous
	// (its WAL sync may or may not precede the snapshot) and lands only in
	// the alternate model.
	acked := storetest.NewModel()
	alt := storetest.NewModel()
	const maxOps = 600
	var inFlight func(*storetest.Model)
	for i := 0; i < maxOps && crash == nil; i++ {
		key := fmt.Sprintf("k%04d", rng.Intn(300))
		dk := uint64(rng.Intn(100))
		switch p := rng.Intn(100); {
		case p < 60:
			v := storetest.Value(dk, i)
			inFlight = func(m *storetest.Model) { m.Put(key, v) }
			err = d.Put([]byte(key), v)
		case p < 75:
			inFlight = func(m *storetest.Model) { m.Delete(key) }
			err = d.Delete([]byte(key))
		case p < 82:
			lo, hi := dk, dk+uint64(1+rng.Intn(10))
			inFlight = func(m *storetest.Model) { m.DeleteRange(lo, hi) }
			err = d.DeleteSecondaryRange(lo, hi)
		case p < 94:
			inFlight = func(*storetest.Model) {}
			err = d.Flush()
		default:
			inFlight = func(*storetest.Model) {}
			err = d.CompactAll()
		}
		if err != nil {
			t.Fatalf("op %d failed under FaultNone rules: %v", i, err)
		}
		if crash == nil {
			inFlight(acked) // fully acked before the crash point
		}
	}
	if crash == nil {
		// The countdown never hit (e.g. a manifest-sync style over a run
		// with few manifest writes): crash at end-of-workload instead.
		crash = mem.CrashClone()
	} else {
		inFlight(alt)
	}
	// alt = acked + the ambiguous in-flight op (or just base).
	for k, v := range acked.Data {
		alt.Put(k, v)
	}
	// Abandon d without Close: that IS the crash. No background goroutines
	// exist (DisableAutoMaintenance), so the handle just goes dark.

	listed, top := listedTables(t, crash)
	ropts := testOptions(crash, &base.LogicalClock{})
	d2, err := Open("db", ropts)
	if err != nil {
		t.Fatalf("recovery open failed: %v", err)
	}
	d2.vs.Current().AllFiles(func(l int, f *manifest.FileMetadata) {
		if !listed[f.FileNum] && f.SmallestSeqNum <= top {
			t.Fatalf("recovery wrote table %d (L%d, seqnums %d..%d) replaying what the crash image's tables hold, up to seqnum %d",
				f.FileNum, l, f.SmallestSeqNum, f.LargestSeqNum, top)
		}
	})
	if msg, ok := matchesEither(d2, acked, alt); !ok {
		t.Fatalf("recovered state matches neither model: %s", msg)
	}
	checkTombstoneLedger(t, d2)
	if err := d2.VerifyChecksums(); err != nil {
		t.Fatalf("scrub after recovery: %v", err)
	}
	if err := d2.CompactAll(); err != nil {
		t.Fatalf("CompactAll after recovery: %v", err)
	}
	if msg, ok := matchesEither(d2, acked, alt); !ok {
		t.Fatalf("post-compaction state matches neither model: %s", msg)
	}
	checkTombstoneLedger(t, d2)
	if err := d2.Close(); err != nil {
		t.Fatalf("Close after recovery: %v", err)
	}

	// The recovery open must have cleaned every orphan: a further open
	// finds nothing left to remove.
	before := listTables(t, crash)
	d3, err := Open("db", ropts)
	if err != nil {
		t.Fatalf("second recovery open: %v", err)
	}
	after := listTables(t, crash)
	if strings.Join(before, ",") != strings.Join(after, ",") {
		t.Fatalf("first recovery left orphans: before=%v after=%v", before, after)
	}
	if msg, ok := matchesEither(d3, acked, alt); !ok {
		t.Fatalf("state after clean close/reopen matches neither model: %s", msg)
	}
	checkTombstoneLedger(t, d3)
	if err := d3.Close(); err != nil {
		t.Fatal(err)
	}
}

// matchesEither compares the engine against the two candidate models.
// Unlike storetest.Check it must not t.Fatal on the first divergence — the
// base model failing is fine as long as alt matches.
func matchesEither(d *DB, acked, alt *storetest.Model) (string, bool) {
	vsAcked := storetest.Diff(target(d), acked)
	if vsAcked == "" {
		return "", true
	}
	vsAlt := storetest.Diff(target(d), alt)
	return fmt.Sprintf("vs acked: %s; vs alt: %s", vsAcked, vsAlt), vsAlt == ""
}

// listedTables reads the manifest of the store in fs, on a copy so the
// store stays as the crash left it: the tables it lists and the largest
// sequence number any of them holds.
func listedTables(t *testing.T, fs *vfs.MemFS) (map[base.FileNum]bool, base.SeqNum) {
	t.Helper()
	vs, err := manifest.Load(fs.CrashClone(), "db")
	if err != nil {
		t.Fatalf("reading the crash image's manifest: %v", err)
	}
	defer vs.Close()
	listed := make(map[base.FileNum]bool)
	var top base.SeqNum
	vs.Current().AllFiles(func(_ int, f *manifest.FileMetadata) {
		listed[f.FileNum] = true
		top = max(top, f.LargestSeqNum)
	})
	return listed, top
}

func listTables(t *testing.T, fs vfs.FS) []string {
	t.Helper()
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	var tables []string
	for _, n := range names {
		if strings.HasSuffix(n, ".sst") {
			tables = append(tables, n)
		}
	}
	sort.Strings(tables)
	return tables
}
