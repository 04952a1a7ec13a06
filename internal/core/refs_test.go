package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/base"
	"repro/internal/manifest"
	"repro/internal/storetest"
	"repro/internal/vfs"
)

// tablesOnDisk counts the table files in the store directory.
func tablesOnDisk(t *testing.T, d *DB) int {
	t.Helper()
	names, err := d.opts.FS.List(d.dirname)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if typ, _, ok := manifest.ParseFilename(name); ok && typ == manifest.FileTypeTable {
			n++
		}
	}
	return n
}

// TestIteratorPinsOnlyItsVersion: an open iterator keeps the files of the
// version it reads and nothing else. Files replaced after it opened, and
// never part of its version, are unlinked as they are replaced; the files it
// holds go with its Close. ZombieTables counts exactly the files it keeps.
func TestIteratorPinsOnlyItsVersion(t *testing.T) {
	const keys = 5000
	d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	put := func(round int) {
		t.Helper()
		for i := 0; i < keys; i++ {
			if err := d.Put([]byte(fmt.Sprintf("k%05d", i)), storetest.Value(uint64(i), round)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.WaitIdle(); err != nil {
			t.Fatal(err)
		}
	}
	put(0)
	it, err := d.NewIter(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	held := it.rs.version.NumFiles()

	for round := 1; round <= 10; round++ {
		put(round)
		onDisk, live := tablesOnDisk(t, d), d.vs.Current().NumFiles()
		if onDisk > live+held {
			t.Fatalf("round %d: %d tables on disk, but only %d live and %d held by the iterator", round, onDisk, live, held)
		}
		if z := d.stats.ZombieTables.Get(); z != int64(onDisk-live) {
			t.Fatalf("round %d: ZombieTables = %d, want %d on disk - %d live", round, z, onDisk, live)
		}
	}
	// The held files still serve the iterator's view: round 0's values.
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		if want := storetest.Value(uint64(n), 0); !bytes.Equal(it.Value(), want) {
			t.Fatalf("iterator read %s = %x, want round 0's %x", it.Key(), it.Value(), want)
		}
		n++
	}
	if err := it.Close(); err != nil || n != keys {
		t.Fatalf("iterator saw %d keys (err %v), want %d", n, err, keys)
	}
	if onDisk, live := tablesOnDisk(t, d), d.vs.Current().NumFiles(); onDisk != live {
		t.Fatalf("after Close: %d tables on disk, %d live", onDisk, live)
	}
	if z := d.stats.ZombieTables.Get(); z != 0 {
		t.Fatalf("after Close: ZombieTables = %d, want 0", z)
	}
}

// concurrentOptions is testOptions with a live pool of two executors.
func concurrentOptions(fs vfs.FS) Options {
	opts := testOptions(fs, &base.LogicalClock{})
	opts.DisableAutoMaintenance = false
	tune(&opts).executors = 2
	opts.MaintenanceTickInterval = time.Millisecond
	return opts
}

// runWriter puts from a goroutine, cycling over keys, until it has made puts
// puts or stop is closed, so flushes and compactions keep replacing files;
// acked counts the puts that returned. Put i writes key i%keys. The returned
// wait reports the writer's error.
func runWriter(d *DB, keys, puts int, stop <-chan struct{}, acked *atomic.Int64) (wait func() error) {
	var (
		wg  sync.WaitGroup
		err error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < puts; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := i % keys
			if err = d.Put([]byte(fmt.Sprintf("k%06d", k)), storetest.Value(uint64(k), i)); err != nil {
				return
			}
			acked.Store(int64(i + 1))
		}
	}()
	return func() error { wg.Wait(); return err }
}

// TestVerifyChecksumsBesideMaintenance: a scrub holds the version it reads,
// so compactions replacing its files while it runs cannot unlink them under
// it.
func TestVerifyChecksumsBesideMaintenance(t *testing.T) {
	d := mustOpen(t, concurrentOptions(vfs.NewMemFS()))
	stop := make(chan struct{})
	var acked atomic.Int64
	wait := runWriter(d, 20000, 1<<30, stop, &acked)
	scrubs, failed := 0, 0
	var first error
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); scrubs++ {
		if err := d.VerifyChecksums(); err != nil {
			if failed++; first == nil {
				first = err
			}
		}
	}
	close(stop)
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if failed > 0 {
		t.Fatalf("%d of %d scrubs beside maintenance failed; first: %v", failed, scrubs, first)
	}
	if d.stats.CompactionsByTrigger[0].Get()+d.stats.CompactionsByTrigger[1].Get() == 0 {
		t.Fatalf("no compaction ran beside %d scrubs (%d puts)", scrubs, acked.Load())
	}
}

// TestCheckpointBesideMaintenance: a checkpoint copies the files of the
// version it holds while executors keep flushing and compacting, and each
// checkpoint opens, scrubs clean and holds every put acknowledged before it
// began.
func TestCheckpointBesideMaintenance(t *testing.T) {
	const keys = 200000 // the writer never wraps, so key i holds put i's value
	fs := vfs.NewMemFS()
	d := mustOpen(t, concurrentOptions(fs))
	stop := make(chan struct{})
	var acked atomic.Int64
	wait := runWriter(d, keys, keys, stop, &acked)
	defer func() {
		close(stop)
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}()
	for c := 0; c < 5; c++ {
		time.Sleep(20 * time.Millisecond)
		n := int(acked.Load())
		dir := fmt.Sprintf("ckpt-%d", c)
		if err := d.Checkpoint(dir); err != nil {
			t.Fatalf("checkpoint %d: %v", c, err)
		}
		cp, err := Open(dir, testOptions(fs, &base.LogicalClock{}))
		if err != nil {
			t.Fatalf("opening checkpoint %d: %v", c, err)
		}
		if err := cp.VerifyChecksums(); err != nil {
			t.Fatalf("checkpoint %d scrub: %v", c, err)
		}
		// Keys sort in put order: the first n must be puts 0..n-1.
		it, err := cp.NewIter(IterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for ok := it.First(); ok && i < n; ok = it.Next() {
			if k := fmt.Sprintf("k%06d", i); string(it.Key()) != k || !bytes.Equal(it.Value(), storetest.Value(uint64(i), i)) {
				t.Fatalf("checkpoint %d (after %d acked puts): entry %d is %s = %x, want %s", c, n, i, it.Key(), it.Value(), k)
			}
			i++
		}
		if err := it.Close(); err != nil || i < n {
			t.Fatalf("checkpoint %d holds %d of the %d puts acked before it (err %v)", c, i, n, err)
		}
		if err := cp.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if d.stats.CompactionsByTrigger[0].Get()+d.stats.CompactionsByTrigger[1].Get() == 0 {
		t.Fatal("no compaction ran beside the checkpoints")
	}
}
