package compaction

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/base"
	"repro/internal/manifest"
	"repro/internal/sstable"
	"repro/internal/vfs"
	"repro/internal/vfs/errorfs"
)

// raceEnabled reports whether the test binary runs under the race detector,
// whose sync.Pool drops items at random.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestRunFailureLeavesOnlyInputs injects one fault into a job big enough to
// cross many handoffs and output rolls: on the writer goroutine's side (a
// Write of an output table mid-job, the Sync that finishes the last table)
// and on the merge's (a bit flipped in an input page read mid-job). Run must
// return that error, unlink every table it wrote and leave no goroutine
// behind. "Mid-job" is half of what a clean run of the same job does.
func TestRunFailureLeavesOnlyInputs(t *testing.T) {
	const n = benchRunEntries
	for _, h := range []int{1, 4} {
		e := newTestEnv(h)
		inputs := slices.Concat(benchRunFiles(t, e, n/2, n+1, 5), benchRunFiles(t, e, 0, 1, 0))
		c := candidate(1, inputs[:4], inputs[4:])
		var want []string
		for _, f := range inputs {
			want = append(want, filepath.Base(manifest.MakeFilename("db", manifest.FileTypeTable, f.FileNum)))
		}
		efs := errorfs.Wrap(e.fs, 1)
		env := e.env(t)
		env.FS = efs
		env.TargetFileBytes = 256 << 10
		env.Bottommost = true
		// Readers open through the faulty FS, afresh for every job.
		env.OpenReader = func(fn base.FileNum) (*sstable.Reader, error) {
			f, err := efs.Open(manifest.MakeFilename("db", manifest.FileTypeTable, fn))
			if err != nil {
				return nil, err
			}
			return sstable.Open(f)
		}

		// A clean run counts the operations the faults are placed among.
		count := func(op errorfs.Op) *errorfs.Rule {
			return efs.Add(&errorfs.Rule{Ops: []errorfs.Op{op}, Sticky: true, Kind: errorfs.FaultNone})
		}
		writes, syncs, reads := count(errorfs.OpWrite), count(errorfs.OpSync), count(errorfs.OpRead)
		res, err := Run(c, env)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Outputs) < 4 || res.BytesWritten < 8*batchBytes {
			t.Fatalf("h=%d: the job wrote %d bytes in %d tables, want several batches and rolls", h, res.BytesWritten, len(res.Outputs))
		}
		for _, of := range res.Outputs {
			if err := e.fs.Remove(manifest.MakeFilename("db", manifest.FileTypeTable, of.FileNum)); err != nil {
				t.Fatal(err)
			}
		}
		efs.Clear()

		for _, tc := range []struct {
			name      string
			op        errorfs.Op
			countdown int
			kind      errorfs.Kind
			want      error
		}{
			{"write mid-job", errorfs.OpWrite, writes.Fired() / 2, errorfs.FaultTransient, errorfs.ErrInjected},
			{"sync of the last table", errorfs.OpSync, syncs.Fired(), errorfs.FaultTransient, errorfs.ErrInjected},
			{"bit flip mid-job", errorfs.OpRead, reads.Fired() / 2, errorfs.FaultCorrupt, sstable.ErrCorrupt},
		} {
			t.Run(fmt.Sprintf("h=%d/%s", h, tc.name), func(t *testing.T) {
				defer efs.Clear()
				rule := efs.Add(&errorfs.Rule{Ops: []errorfs.Op{tc.op}, Countdown: tc.countdown, Kind: tc.kind})
				goroutines := runtime.NumGoroutine()
				_, err := Run(c, env)
				if rule.Fired() != 1 || !errors.Is(err, tc.want) {
					t.Fatalf("fault fired %d times; Run returned %v, want %v", rule.Fired(), err, tc.want)
				}
				if got, _ := e.fs.List("db"); !slices.Equal(got, want) {
					t.Fatalf("the directory holds %v after the failed job, want only its inputs %v", got, want)
				}
				// The writer goroutine has signalled its exit before Run
				// returns, but may not have finished exiting.
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after the failed job, %d before", runtime.NumGoroutine(), goroutines)
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}

// TestRunBatchesPooled: a job's handoff batches come from a pool that
// outlives it. With the pool emptied, a job allocates its batches; the same
// job run again must not.
func TestRunBatchesPooled(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	const n = benchRunEntries
	e := newTestEnv(1)
	older, newer := benchRunFiles(t, e, 0, 1, 0), benchRunFiles(t, e, n/2, n+1, 5)
	env := e.env(t)
	env.Bottommost = true
	c := candidate(1, newer, older)
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(c, env)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		for _, of := range res.Outputs {
			if err := e.fs.Remove(manifest.MakeFilename("db", manifest.FileTypeTable, of.FileNum)); err != nil {
				t.Fatal(err)
			}
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // opens and caches the input readers
	runtime.GC()
	runtime.GC() // a sync.Pool keeps what it holds through one collection
	first := run()
	second := run()
	if first < second+batchesInFlight*batchBytes/2 {
		t.Fatalf("the job allocated %d bytes with the pool empty and %d with it filled: its batches were not pooled", first, second)
	}
}

// TestRunReportsStageWaits: a job whose writer is held up reports the merge's
// wait on it, and a job whose merge is held up reports the writer's wait for
// batches — each at least as long as the hold-up guarantees.
func TestRunReportsStageWaits(t *testing.T) {
	const n = 1000
	e := newTestEnv(1)
	var older, newer []kv
	for i := 0; i < n; i++ {
		older = append(older, kv{fmt.Sprintf("k%05d", i), 1, base.KindSet, dkVal(uint64(i))})
		newer = append(newer, kv{fmt.Sprintf("k%05d", i), n + 1, base.KindSet, dkVal(uint64(i))})
	}
	c := candidate(1, []*manifest.FileMetadata{e.newTable(t, newer, nil)}, []*manifest.FileMetadata{e.newTable(t, older, nil)})
	const delay = 20 * time.Millisecond

	t.Run("writer-bound", func(t *testing.T) {
		// The last table's Sync runs after the merge has handed everything
		// over, so the join waits through it.
		env := e.env(t)
		env.FS = slowFS{FS: e.fs, sync: delay}
		res, err := Run(c, env)
		if err != nil {
			t.Fatal(err)
		}
		if res.MergeWait < delay {
			t.Fatalf("MergeWait = %v behind a %v sync", res.MergeWait, delay)
		}
	})
	t.Run("merge-bound", func(t *testing.T) {
		// Every page read by the merge is slow, and the writer has nothing
		// to do until a batch (here, the whole job) arrives.
		env := e.env(t)
		slow := slowFS{FS: e.fs, read: delay / 10}
		env.OpenReader = func(fn base.FileNum) (*sstable.Reader, error) {
			f, err := slow.Open(manifest.MakeFilename("db", manifest.FileTypeTable, fn))
			if err != nil {
				return nil, err
			}
			return sstable.Open(f)
		}
		res, err := Run(c, env)
		if err != nil {
			t.Fatal(err)
		}
		if res.WriterWait < delay {
			t.Fatalf("WriterWait = %v behind %d KiB of pages read at %v each", res.WriterWait, res.BytesRead>>10, delay/10)
		}
	})
}

// slowFS delays every Sync of a file it creates and every ReadAt of a file it
// opens.
type slowFS struct {
	vfs.FS
	sync, read time.Duration
}

func (fs slowFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return slowFile{f, fs}, nil
}

func (fs slowFS) Open(name string) (vfs.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return slowFile{f, fs}, nil
}

type slowFile struct {
	vfs.File
	fs slowFS
}

func (f slowFile) Sync() error {
	time.Sleep(f.fs.sync)
	return f.File.Sync()
}

func (f slowFile) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(f.fs.read)
	return f.File.ReadAt(p, off)
}
