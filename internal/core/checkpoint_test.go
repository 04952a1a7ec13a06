package core

import (
	"fmt"
	"testing"

	"repro/internal/base"
	"repro/internal/storetest"
	"repro/internal/vfs"
)

func TestCheckpointIsOpenable(t *testing.T) {
	fs := vfs.NewMemFS()
	clk := &base.LogicalClock{}
	opts := testOptions(fs, clk)
	d := mustOpen(t, opts)
	for i := 0; i < 3000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%05d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i += 9 {
		if err := d.Delete([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint("backup"); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	// The source keeps working.
	if err := d.Put([]byte("post-checkpoint"), storetest.Value(1, 1)); err != nil {
		t.Fatal(err)
	}

	// The checkpoint opens independently and holds the full state.
	cp, err := Open("backup", opts)
	if err != nil {
		t.Fatalf("opening checkpoint: %v", err)
	}
	defer cp.Close()
	for i := 1; i < 3000; i += 13 {
		k := []byte(fmt.Sprintf("k%05d", i))
		_, err := cp.Get(k)
		if i%9 == 0 {
			if err != ErrNotFound {
				t.Fatalf("deleted key %s in checkpoint: %v", k, err)
			}
		} else if err != nil {
			t.Fatalf("key %s missing from checkpoint: %v", k, err)
		}
	}
	// Writes after the checkpoint are absent from it.
	if _, err := cp.Get([]byte("post-checkpoint")); err != ErrNotFound {
		t.Fatalf("checkpoint leaked post-checkpoint write: %v", err)
	}
	// Both stores accept writes without interfering.
	if err := cp.Put([]byte("fork"), storetest.Value(2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get([]byte("fork")); err != ErrNotFound {
		t.Fatal("checkpoint write leaked into source")
	}
}

func TestCheckpointOnEmptyStore(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := testOptions(fs, &base.LogicalClock{})
	d := mustOpen(t, opts)
	if err := d.Checkpoint("empty-backup"); err != nil {
		t.Fatal(err)
	}
	cp, err := Open("empty-backup", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if _, err := cp.Get([]byte("x")); err != ErrNotFound {
		t.Fatal("empty checkpoint not empty")
	}
}

func TestVerifyChecksumsClean(t *testing.T) {
	fs := vfs.NewMemFS()
	d := mustOpen(t, testOptions(fs, &base.LogicalClock{}))
	for i := 0; i < 4000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%05d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyChecksums(); err != nil {
		t.Fatalf("clean store failed scrub: %v", err)
	}
}

func TestVerifyChecksumsDetectsCorruption(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := testOptions(fs, &base.LogicalClock{})
	opts.BlockCacheBytes = -1 // force reads to hit the (corrupted) file
	d := mustOpen(t, opts)
	for i := 0; i < 4000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%05d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of some sstable.
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, name := range names {
		if len(name) > 4 && name[len(name)-4:] == ".sst" {
			f, err := fs.Open("db/" + name)
			if err != nil {
				t.Fatal(err)
			}
			size, _ := f.Size()
			f.Close()
			if size < 2000 {
				continue
			}
			buf := make([]byte, size)
			rf, _ := fs.Open("db/" + name)
			rf.ReadAt(buf, 0)
			rf.Close()
			buf[500] ^= 0xff
			w, _ := fs.Create("db/" + name)
			w.Write(buf)
			w.Close()
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no table large enough to corrupt")
	}
	if err := d.VerifyChecksums(); err == nil {
		t.Fatal("scrub missed the corruption")
	}
}
