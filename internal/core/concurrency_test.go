package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/storetest"
	"repro/internal/vfs"
)

// TestAutoMaintenanceStress exercises the background worker: concurrent
// writers, readers and scanners while flushes and compactions run on the
// worker goroutine with a real wall clock.
func TestAutoMaintenanceStress(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := Options{
		FS:            fs,
		MemTableBytes: 64 << 10,
		DeleteKeyFunc: storetest.DeleteKey,
		Compaction: compaction.Options{
			SizeRatio:       4,
			L0Threshold:     2,
			BaseLevelBytes:  128 << 10,
			TargetFileBytes: 32 << 10,
			DPT:             base.Duration(50 * time.Millisecond),
			Picker:          compaction.PickFADE,
		},
		// Auto maintenance ON: the background worker drives everything.
	}
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const opsPerWriter = 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				k := []byte(fmt.Sprintf("w%d-k%05d", w, i%1500))
				var err error
				if i%5 == 4 {
					err = d.Delete(k)
				} else {
					err = d.Put(k, storetest.Value(uint64(i), i))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("w%d-k%05d", r, r*37%1500))
				if _, err := d.Get(k); err != nil && err != ErrNotFound {
					t.Errorf("reader: %v", err)
					return
				}
				it, err := d.NewIter(IterOptions{})
				if err != nil {
					t.Errorf("iter: %v", err)
					return
				}
				n := 0
				for ok := it.First(); ok && n < 200; ok = it.Next() {
					n++
				}
				if err := it.Close(); err != nil {
					t.Errorf("iter close: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	// Let the worker quiesce, then verify integrity.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		d.mu.Lock()
		pending := len(d.imm)
		d.mu.Unlock()
		if pending == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and scrub: the store must be structurally sound.
	opts.DisableAutoMaintenance = true
	d2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.VerifyChecksums(); err != nil {
		t.Fatalf("scrub after stress: %v", err)
	}
	// Spot-check: last written version of a surviving key reads back.
	for w := 0; w < writers; w++ {
		k := []byte(fmt.Sprintf("w%d-k%05d", w, (opsPerWriter-1)%1500))
		if _, err := d2.Get(k); err != nil && err != ErrNotFound {
			t.Fatalf("post-stress read: %v", err)
		}
	}
}

// TestWorkerDisposesTombstonesOnWallClock: with auto maintenance and the
// OS clock, a DPT expressed in wall time is honoured without any manual
// stepping.
func TestWorkerDisposesTombstonesOnWallClock(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := Options{
		FS:            fs,
		MemTableBytes: 16 << 10,
		Compaction: compaction.Options{
			SizeRatio:       4,
			L0Threshold:     2,
			BaseLevelBytes:  64 << 10,
			TargetFileBytes: 16 << 10,
			DPT:             base.Duration(100 * time.Millisecond),
			Picker:          compaction.PickFADE,
		},
	}
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 2000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%05d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i += 3 {
		if err := d.Delete([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait up to 20x the DPT for the worker to dispose of everything.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if d.stats.LiveTombstones.Get() == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if live := d.stats.LiveTombstones.Get(); live != 0 {
		t.Fatalf("%d tombstones still live long after the wall-clock DPT", live)
	}
}
