package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/base"
	"repro/internal/manifest"
	"repro/internal/storetest"
	"repro/internal/vfs"
	"repro/internal/vfs/errorfs"
)

// TestOrphanTablesRemovedAtOpen: tables on disk that the manifest does not
// reference (e.g. leftovers from a crash mid-compaction) are deleted during
// recovery.
func TestOrphanTablesRemovedAtOpen(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := testOptions(fs, &base.LogicalClock{})
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		d.Put([]byte(fmt.Sprintf("k%04d", i)), storetest.Value(uint64(i), i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Drop an orphan .sst that no manifest references.
	orphan := manifest.MakeFilename("db", manifest.FileTypeTable, 999999)
	f, _ := fs.Create(orphan)
	f.Write([]byte("junk"))
	f.Close()

	d, err = Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if fs.Exists(orphan) {
		t.Fatal("orphan table survived recovery")
	}
	if _, err := d.Get([]byte("k0042")); err != nil {
		t.Fatalf("data lost during cleanup: %v", err)
	}
}

// TestTornWALTailRecovered: a torn final record is dropped; everything
// before it survives.
func TestTornWALTailRecovered(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := testOptions(fs, &base.LogicalClock{})
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%04d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash: do NOT close; locate the live WAL and tear its
	// tail, then open a second instance over the same files.
	names, _ := fs.List("db")
	var logName string
	for _, n := range names {
		if strings.HasSuffix(n, ".log") {
			logName = "db/" + n // the only live log
		}
	}
	if logName == "" {
		t.Fatal("no WAL found")
	}
	lf, _ := fs.Open(logName)
	size, _ := lf.Size()
	buf := make([]byte, size-7) // cut into the last record
	lf.ReadAt(buf, 0)
	lf.Close()
	w, _ := fs.Create(logName)
	w.Write(buf)
	w.Close()

	d2, err := Open("db", opts)
	if err != nil {
		t.Fatalf("recovery with torn tail failed: %v", err)
	}
	defer d2.Close()
	// All but (at most) the torn final record must be present.
	missing := 0
	for i := 0; i < 100; i++ {
		if _, err := d2.Get([]byte(fmt.Sprintf("k%04d", i))); err == ErrNotFound {
			missing++
		}
	}
	if missing > 1 {
		t.Fatalf("torn tail lost %d records, want <= 1", missing)
	}
}

// TestFlushSyncErrorSurfaces: an injected sync failure during flush is
// reported, not swallowed. The fault targets *.sst syncs specifically, so
// unlike the old MemFS.InjectSyncError (next sync on any file) it cannot be
// consumed by a racing WAL sync.
func TestFlushSyncErrorSurfaces(t *testing.T) {
	mem := vfs.NewMemFS()
	efs := errorfs.Wrap(mem, 1)
	opts := testOptions(efs, &base.LogicalClock{})
	d := mustOpen(t, opts)
	for i := 0; i < 100; i++ {
		d.Put([]byte(fmt.Sprintf("k%04d", i)), storetest.Value(uint64(i), i))
	}
	rule := efs.Add(&errorfs.Rule{
		Ops:      []errorfs.Op{errorfs.OpSync},
		PathGlob: "*.sst",
		Kind:     errorfs.FaultTransient,
	})
	err := d.Flush()
	if err == nil || !errors.Is(err, errorfs.ErrInjected) {
		t.Fatalf("sync failure not surfaced: %v", err)
	}
	if rule.Fired() != 1 {
		t.Fatalf("rule fired %d times, want 1", rule.Fired())
	}
	assertNoOrphanTables(t, efs, d)
	// The rule was one-shot; the retry succeeds and the data lands.
	if err := d.Flush(); err != nil {
		t.Fatalf("flush after fault cleared: %v", err)
	}
	if _, err := d.Get([]byte("k0042")); err != nil {
		t.Fatalf("get after recovered flush: %v", err)
	}
}

// TestRecoveryPreservesSeqNums: sequence numbers continue monotonically
// across restarts (no reuse that could resurrect shadowed versions).
func TestRecoveryPreservesSeqNums(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := testOptions(fs, &base.LogicalClock{})
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	d.Put([]byte("k"), storetest.Value(1, 1))
	d.Delete([]byte("k"))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// The new write must shadow the tombstone: if seqnums restarted low
	// it would be shadowed BY the tombstone instead.
	if err := d.Put([]byte("k"), storetest.Value(2, 2)); err != nil {
		t.Fatal(err)
	}
	v, err := d.Get([]byte("k"))
	if err != nil || storetest.DeleteKey(v) != 2 {
		t.Fatalf("post-recovery write shadowed by old tombstone: %v, %v", v, err)
	}
}

// TestReplayIntoOneLargeMemTable: a crash leaves more than two memtables'
// worth of WAL, one value in it larger than the skiplist arena's largest
// chunk (1 MiB). Recovery replays every surviving log into one memtable,
// which outgrows MemTableBytes and takes the big value whole, and every key
// reads back. (The skiplist before the arena had no chunk to outgrow, so
// this passes there too; it pins that the arena adds no size limit.)
func TestReplayIntoOneLargeMemTable(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := testOptions(fs, &base.LogicalClock{})
	opts.SyncWrites = true // the crash clone keeps synced bytes only
	d := mustOpen(t, opts)
	want := map[string][]byte{}
	put := func(k string, v []byte) {
		if err := d.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	var written int64
	for i := 0; written <= 2*opts.MemTableBytes; i++ {
		k := fmt.Sprintf("k%05d", i)
		put(k, storetest.Value(uint64(i), i))
		written += int64(len(k) + len(want[k]))
		if i == 500 {
			put("big", append(storetest.Value(1, 1), bytes.Repeat([]byte{'x'}, 3<<19)...))
		}
	}

	opts.FS = fs.CrashClone()
	names, err := opts.FS.List("db")
	if err != nil {
		t.Fatal(err)
	}
	logs := 0
	for _, name := range names {
		if ft, _, ok := manifest.ParseFilename(name); ok && ft == manifest.FileTypeLog {
			logs++
		}
	}
	if logs < 3 {
		t.Fatalf("crash left %d logs, want at least 3 to replay", logs)
	}
	r := mustOpen(t, opts)
	for k, v := range want {
		got, err := r.Get([]byte(k))
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%q) after replay = %d bytes, %v; want %d bytes", k, len(got), err, len(v))
		}
	}
}

// TestIterationDuringCompaction: an open iterator stays consistent while
// compactions rewrite and delete the files underneath it.
func TestIterationDuringCompaction(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := testOptions(fs, &base.LogicalClock{})
	d := mustOpen(t, opts)
	for i := 0; i < 4000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%05d", i)), storetest.Value(uint64(i), i)); err != nil {
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
	// Start iterating, then force a full compaction midway.
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
		if n == 1000 {
			if err := d.CompactAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 4000 {
		t.Fatalf("iterator saw %d keys across a concurrent compaction, want 4000", n)
	}
}

// TestCloseLeavesNothingToReplay: writes acknowledged without SyncWrites
// are in memtables and unsynced WAL segments when Close runs. Close flushes
// them, so a reopen reads every key back and recovery finds no WAL records to
// flush.
func TestCloseLeavesNothingToReplay(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := testOptions(fs, &base.LogicalClock{})
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%04d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if n := d.Stats().Flushes.Get(); n != 0 {
		t.Fatalf("recovery flushed %d memtables, want 0: Close left WAL records behind", n)
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("k%04d", i)
		v, err := d.Get([]byte(k))
		if err != nil {
			t.Fatalf("lost %s across close: %v", k, err)
		}
		if !bytes.Equal(v, storetest.Value(uint64(i), i)) {
			t.Fatalf("%s reads back %q after reopen", k, v)
		}
	}
}

// TestBlockCacheServesReads: with a cache attached, repeated reads hit it.
func TestBlockCacheServesReads(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := testOptions(fs, &base.LogicalClock{})
	opts.BlockCacheBytes = 4 << 20
	d := mustOpen(t, opts)
	for i := 0; i < 3000; i++ {
		d.Put([]byte(fmt.Sprintf("k%05d", i)), storetest.Value(uint64(i), i))
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 3000; i += 17 {
			if _, err := d.Get([]byte(fmt.Sprintf("k%05d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, misses := d.BlockCacheStats()
	if hits == 0 {
		t.Fatalf("no cache hits after repeated reads (misses=%d)", misses)
	}
	if hits < misses {
		t.Fatalf("cache ineffective: %d hits, %d misses", hits, misses)
	}
}
