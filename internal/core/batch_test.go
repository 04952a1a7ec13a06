package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/base"
	"repro/internal/storetest"
	"repro/internal/vfs"
)

func TestBatchAtomicVisibility(t *testing.T) {
	d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	b := NewBatch()
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("k%03d", i)), storetest.Value(uint64(i), i))
	}
	if b.Len() != 100 {
		t.Fatalf("Len = %d", b.Len())
	}
	if err := d.Apply(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i += 7 {
		if _, err := d.Get([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatalf("batched key missing: %v", err)
		}
	}
}

func TestBatchMixedOps(t *testing.T) {
	d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	if err := d.Put([]byte("victim"), storetest.Value(1, 1)); err != nil {
		t.Fatal(err)
	}
	b := NewBatch()
	b.Put([]byte("new"), storetest.Value(2, 2))
	b.Delete([]byte("victim"))
	b.Put([]byte("other"), storetest.Value(3, 3))
	if err := d.Apply(b); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get([]byte("victim")); err != ErrNotFound {
		t.Fatalf("deleted-in-batch key: %v", err)
	}
	if _, err := d.Get([]byte("new")); err != nil {
		t.Fatalf("batched insert: %v", err)
	}
	if d.Stats().DeletesIssued.Get() != 1 {
		t.Fatal("batch delete not accounted")
	}
}

func TestBatchSnapshotSeesAllOrNone(t *testing.T) {
	d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	before := d.NewSnapshot()
	defer before.Release()
	b := NewBatch()
	b.Put([]byte("a"), storetest.Value(1, 1))
	b.Put([]byte("b"), storetest.Value(2, 2))
	if err := d.Apply(b); err != nil {
		t.Fatal(err)
	}
	after := d.NewSnapshot()
	defer after.Release()
	if _, err := d.GetAt([]byte("a"), before); err != ErrNotFound {
		t.Fatal("pre-batch snapshot sees batched write")
	}
	if _, err := d.GetAt([]byte("a"), after); err != nil {
		t.Fatal("post-batch snapshot misses batched write")
	}
	if _, err := d.GetAt([]byte("b"), after); err != nil {
		t.Fatal("post-batch snapshot misses second batched write")
	}
}

func TestBatchSurvivesReopen(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := testOptions(fs, &base.LogicalClock{})
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch()
	for i := 0; i < 500; i++ {
		b.Put([]byte(fmt.Sprintf("k%04d", i)), storetest.Value(uint64(i), i))
	}
	b.Delete([]byte("k0100"))
	if err := d.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Get([]byte("k0042")); err != nil {
		t.Fatalf("batched write lost across reopen: %v", err)
	}
	if _, err := d.Get([]byte("k0100")); err != ErrNotFound {
		t.Fatalf("batched delete lost across reopen: %v", err)
	}
}

func TestBatchResetAndReuse(t *testing.T) {
	d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	b := NewBatch()
	b.Put([]byte("x"), storetest.Value(1, 1))
	if err := d.Apply(b); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	b.Put([]byte("y"), storetest.Value(2, 2))
	if err := d.Apply(b); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get([]byte("y")); err != nil {
		t.Fatal(err)
	}
}

// TestBatchKeepsOpsAcrossGrowth: the batch copies every key and value into
// one buffer, whose moves as it grows leave the queued ops intact, and a
// Reset batch filled again allocates nothing.
func TestBatchKeepsOpsAcrossGrowth(t *testing.T) {
	b := NewBatch()
	key, value := make([]byte, 0, 64), make([]byte, 0, 512)
	fill := func() {
		for i := 0; i < 200; i++ {
			key = fmt.Appendf(key[:0], "k%d", i)
			if i%5 == 4 {
				b.Delete(key)
				continue
			}
			value = append(value[:0], storetest.Value(uint64(i), i)...)
			value = value[:len(value)+i%300] // zero padding, so values vary in size
			b.Put(key, value)
			value[0]++ // the batch holds a copy
		}
	}
	fill()
	i := 0
	b.Ops(func(kind base.Kind, k, v []byte) {
		want := base.KindSet
		wantV := append(storetest.Value(uint64(i), i), make([]byte, i%300)...)
		if i%5 == 4 {
			want, wantV = base.KindDelete, nil
		}
		if kind != want || string(k) != fmt.Sprintf("k%d", i) || string(v) != string(wantV) {
			t.Fatalf("op %d: got %v %q (%d value bytes), want %v k%d (%d)", i, kind, k, len(v), want, i, len(wantV))
		}
		i++
	})
	if i != 200 {
		t.Fatalf("Ops visited %d ops, want 200", i)
	}
	if raceEnabled() {
		return // allocation counts are meaningless under the race detector
	}
	if a := testing.AllocsPerRun(10, func() { b.Reset(); fill() }); a != 0 {
		t.Errorf("refilling a Reset batch allocates %.1f times", a)
	}
}

func TestEmptyBatchNoop(t *testing.T) {
	d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	if err := d.Apply(NewBatch()); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentBatchesAndReads(t *testing.T) {
	d := mustOpen(t, testOptions(vfs.NewMemFS(), &base.LogicalClock{}))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := NewBatch()
				for j := 0; j < 5; j++ {
					b.Put([]byte(fmt.Sprintf("w%d-k%04d", w, i*5+j)), storetest.Value(uint64(i), i))
				}
				if err := d.Apply(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			// Batches are atomic: within one snapshot, either all 5
			// keys of a batch exist or none do.
			w, batch := i%4, i%200
			snap := d.NewSnapshot()
			found := 0
			for j := 0; j < 5; j++ {
				if _, err := d.GetAt([]byte(fmt.Sprintf("w%d-k%04d", w, batch*5+j)), snap); err == nil {
					found++
				}
			}
			snap.Release()
			if found != 0 && found != 5 {
				t.Errorf("partial batch visible: %d/5", found)
				return
			}
		}
	}()
	wg.Wait()
	if err := d.WaitIdle(); err != nil {
		t.Fatal(err)
	}
}
