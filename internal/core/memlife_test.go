package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compaction"
	"repro/internal/vfs"
)

// TestMemtableLifetimeStress races a memtable's readers against its
// retirement. One writer fills a 16 KiB memtable again and again, so the
// background flush retires one memtable after another and the next ones
// build on their arenas, while Gets of the newest keys, an iterator held
// open across several flushes and reads at a snapshot run beside it. Every
// value is checked while the reference it was read under still holds: a
// value names its key and is padded with a fixed pattern. Under -race a
// retired arena is poisoned, so a reference dropped before the read is done
// fails at once.
func TestMemtableLifetimeStress(t *testing.T) {
	d, err := Open("db", Options{
		FS:            vfs.NewMemFS(),
		MemTableBytes: 16 << 10,
		Compaction: compaction.Options{
			SizeRatio:       4,
			L0Threshold:     2,
			BaseLevelBytes:  128 << 10,
			TargetFileBytes: 32 << 10,
		},
		// Auto maintenance on: flushes retire memtables in the background.
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const keys = 512
	writes := 20_000
	if testing.Short() {
		writes = 5_000
	}
	pad := bytes.Repeat([]byte("0123456789"), 8)
	key := func(k int) []byte { return []byte(fmt.Sprintf("k%06d", k)) }
	value := func(k, ver int) []byte { return append([]byte(fmt.Sprintf("%06d:%08d:", k, ver)), pad...) }
	check := func(who string, key, v []byte) bool {
		var k, ver int
		if _, err := fmt.Sscanf(string(v), "%06d:%08d:", &k, &ver); err != nil ||
			string(key) != fmt.Sprintf("k%06d", k) || !bytes.HasSuffix(v, pad) || len(v) != 16+len(pad) {
			t.Errorf("%s: %q holds %q", who, key, v)
			return false
		}
		return true
	}

	var written atomic.Int64 // Puts done
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < writes; i++ {
			k := i % keys
			if err := d.Put(key(k), value(k, i)); err != nil {
				t.Error(err)
				return
			}
			written.Store(int64(i + 1))
		}
	}()
	running := func() bool {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}

	// Gets of the newest keys, which the memtables hold.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; running(); i++ {
				n := int(written.Load())
				k := (n - 1 - (i*7+g)%64 + keys) % keys
				v, err := d.Get(key(k))
				if err == ErrNotFound && n < keys {
					continue
				}
				if err != nil {
					t.Errorf("Get(%s): %v", key(k), err)
					return
				}
				if !check("Get", key(k), v) {
					return
				}
			}
		}(g)
	}

	// An iterator held across several flushes: it starts while the tree is
	// mostly memtables and finishes once three more flushes have retired
	// what it reads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for running() {
			it, err := d.NewIter(IterOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			flushes := d.Stats().Flushes.Get()
			seen := 0
			for ok := it.First(); ok; ok = it.Next() {
				if !check("Iter", it.Key(), it.Value()) {
					break
				}
				if seen++; seen == 16 {
					for running() && d.Stats().Flushes.Get() < flushes+3 {
						runtime.Gosched()
					}
				}
			}
			if err := it.Close(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Reads at a snapshot taken among the flushes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for running() {
			n := int(written.Load()) // Puts the snapshot sees
			s := d.NewSnapshot()
			for j := 0; j < 32 && j < n; j++ {
				k := (n - 1 - j) % keys
				v, err := d.GetAt(key(k), s)
				if err != nil {
					t.Errorf("GetAt(%s): %v", key(k), err)
					break
				}
				if !check("GetAt", key(k), v) {
					break
				}
			}
			s.Release()
		}
	}()
	wg.Wait()
	if f := d.Stats().Flushes.Get(); f < 10 {
		t.Fatalf("only %d flushes: the memtables did not turn over", f)
	}
}
