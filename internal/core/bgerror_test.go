package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/event"
	"repro/internal/manifest"
	"repro/internal/storetest"
	"repro/internal/vfs"
	"repro/internal/vfs/errorfs"
	"repro/internal/wal"
)

// faultOptions is testOptions with auto maintenance on and tight retry
// timing, so fault tests converge in milliseconds instead of seconds.
func faultOptions(fs vfs.FS, concurrency int) Options {
	opts := testOptions(fs, &base.LogicalClock{})
	opts.DisableAutoMaintenance = false
	opts.MaintenanceTickInterval = time.Millisecond
	tn := tune(&opts)
	tn.executors = concurrency
	tn.maxImm = 1
	tn.maxRetries = 3
	tn.retryBase = time.Millisecond
	tn.retryMax = 4 * time.Millisecond
	return opts
}

func TestBackoffDelaySchedule(t *testing.T) {
	opts := testOptions(vfs.NewMemFS(), &base.LogicalClock{})
	tn := tune(&opts)
	tn.retryBase = 10 * time.Millisecond
	tn.retryMax = 80 * time.Millisecond
	d := mustOpen(t, opts)
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got := d.backoffDelay(i + 1); got != w {
			t.Fatalf("backoffDelay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// TestStalledWriterReleasedByBackgroundError is the acceptance scenario: a
// permanently failing flush must release a stalled writer with a wrapped
// ErrBackgroundError in bounded time, reads keep serving committed data in
// read-only mode, and Close returns cleanly. Like the other fault tests
// below it runs against a maintenance pool of one (whose executor steps
// flush → eager → compaction) and of two (a flush executor beside a
// compaction executor): both run the same loop, so retry, backoff, and
// escalation to the sticky error must not differ.
func TestStalledWriterReleasedByBackgroundError(t *testing.T) {
	for _, conc := range []int{1, 2} {
		t.Run(fmt.Sprintf("concurrency=%d", conc), func(t *testing.T) {
			mem := vfs.NewMemFS()
			efs := errorfs.Wrap(mem, 1)
			opts := faultOptions(efs, conc)
			// Options.Logger is called from executor goroutines.
			var logMu sync.Mutex
			var logged []string
			opts.Logger = func(format string, args ...any) {
				logMu.Lock()
				logged = append(logged, fmt.Sprintf(format, args...))
				logMu.Unlock()
			}
			d, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Put([]byte("committed"), storetest.Value(7, 7)); err != nil {
				t.Fatal(err)
			}
			// Every table create from here on is out of space — permanent.
			efs.Add(&errorfs.Rule{
				Ops:      []errorfs.Op{errorfs.OpCreate},
				PathGlob: "*.sst",
				Sticky:   true,
				Kind:     errorfs.FaultNoSpace,
			})

			errCh := make(chan error, 1)
			go func() {
				for i := 0; ; i++ {
					if err := d.Put([]byte(fmt.Sprintf("k%06d", i)), storetest.Value(uint64(i), i)); err != nil {
						errCh <- err
						return
					}
				}
			}()
			var werr error
			select {
			case werr = <-errCh:
			case <-time.After(30 * time.Second):
				t.Fatal("stalled writer hung: background error never released it")
			}
			if !errors.Is(werr, ErrBackgroundError) {
				t.Fatalf("writer error = %v, want wrapped ErrBackgroundError", werr)
			}
			if !errors.Is(werr, vfs.ErrNoSpace) {
				t.Fatalf("writer error = %v, want ENOSPC cause in chain", werr)
			}

			// Read-only mode: reads serve, writes fail fast.
			if _, err := d.Get([]byte("committed")); err != nil {
				t.Fatalf("read in read-only mode: %v", err)
			}
			if err := d.Put([]byte("x"), storetest.Value(1, 1)); !errors.Is(err, ErrBackgroundError) {
				t.Fatalf("Put after background error = %v", err)
			}
			if err := d.DeleteSecondaryRange(1, 2); !errors.Is(err, ErrBackgroundError) {
				t.Fatalf("DeleteSecondaryRange after background error = %v", err)
			}
			if err := d.Checkpoint("ckpt"); !errors.Is(err, ErrBackgroundError) {
				t.Fatalf("Checkpoint after background error = %v", err)
			}
			if d.BackgroundError() == nil {
				t.Fatal("BackgroundError() must report the sticky error")
			}
			if d.Stats().ReadOnly.Get() != 1 {
				t.Fatal("ReadOnly gauge not set")
			}
			if d.Stats().BackgroundErrors.Get() == 0 {
				t.Fatal("BackgroundErrors counter not bumped")
			}
			// The failed job landed in the observability ring with its error.
			var foundErr bool
			for _, ji := range d.RecentMaintJobs() {
				if ji.Err != nil && errors.Is(ji.Err, vfs.ErrNoSpace) {
					foundErr = true
				}
			}
			if !foundErr {
				t.Fatal("no RecentMaintJobs entry carries the flush error")
			}
			if err := d.Close(); err != nil {
				t.Fatalf("Close in read-only mode: %v", err)
			}
			// The flip to read-only is announced to Options.Logger exactly
			// once per DB, with its cause, however many executors hit the
			// sticky fault and however many writes are refused afterwards.
			logMu.Lock()
			defer logMu.Unlock()
			var readOnly []string
			for _, line := range logged {
				if strings.Contains(line, "entering read-only mode") {
					readOnly = append(readOnly, line)
				}
			}
			if len(readOnly) != 1 || !strings.Contains(readOnly[0], "nospace fault on create") {
				t.Fatalf("read-only log lines = %q, want exactly one, naming the injected fault", readOnly)
			}
		})
	}
}

// TestTransientFlushErrorRetriesAndRecovers: a one-shot transient fault is
// absorbed by backoff-retry; the engine stays healthy and the data lands.
func TestTransientFlushErrorRetriesAndRecovers(t *testing.T) {
	for _, conc := range []int{1, 2} {
		t.Run(fmt.Sprintf("concurrency=%d", conc), func(t *testing.T) {
			mem := vfs.NewMemFS()
			efs := errorfs.Wrap(mem, 1)
			opts := faultOptions(efs, conc)
			d, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			efs.Add(&errorfs.Rule{
				Ops:      []errorfs.Op{errorfs.OpSync},
				PathGlob: "*.sst",
				Kind:     errorfs.FaultTransient, // one-shot: first sst sync fails
			})
			for i := 0; i < 3000; i++ {
				if err := d.Put([]byte(fmt.Sprintf("k%05d", i)), storetest.Value(uint64(i), i)); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			deadline := time.Now().Add(30 * time.Second)
			for d.Stats().Flushes.Get() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("flush never succeeded after transient fault")
				}
				time.Sleep(time.Millisecond)
			}
			if err := d.BackgroundError(); err != nil {
				t.Fatalf("transient fault escalated to background error: %v", err)
			}
			if d.Stats().JobRetries.Get() == 0 {
				t.Fatal("JobRetries counter not bumped")
			}
			if d.Stats().ReadOnly.Get() != 0 {
				t.Fatal("ReadOnly gauge set after a recovered transient fault")
			}
			if err := d.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			assertNoOrphanTables(t, efs, d)
		})
	}
}

// TestTransientRetriesExhaustedGoReadOnly: a fault that keeps reading as
// transient still escalates once tuning.maxRetries consecutive attempts
// fail.
func TestTransientRetriesExhaustedGoReadOnly(t *testing.T) {
	for _, conc := range []int{1, 2} {
		t.Run(fmt.Sprintf("concurrency=%d", conc), func(t *testing.T) {
			mem := vfs.NewMemFS()
			efs := errorfs.Wrap(mem, 1)
			opts := faultOptions(efs, conc)
			opts.tuning.maxRetries = 2
			d, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			efs.Add(&errorfs.Rule{
				Ops:      []errorfs.Op{errorfs.OpSync},
				PathGlob: "*.sst",
				Sticky:   true,
				Kind:     errorfs.FaultTransient,
			})
			for i := 0; i < 3000; i++ {
				if err := d.Put([]byte(fmt.Sprintf("k%05d", i)), storetest.Value(uint64(i), i)); err != nil {
					if errors.Is(err, ErrBackgroundError) {
						break // stalled writer released by the escalation — fine
					}
					t.Fatalf("put %d: %v", i, err)
				}
			}
			deadline := time.Now().Add(30 * time.Second)
			for d.BackgroundError() == nil {
				if time.Now().After(deadline) {
					t.Fatal("retry exhaustion never escalated to a background error")
				}
				time.Sleep(time.Millisecond)
			}
			werr := d.BackgroundError()
			if !errors.Is(werr, ErrBackgroundError) || !errors.Is(werr, errorfs.ErrInjected) {
				t.Fatalf("background error = %v", werr)
			}
			if got := d.Stats().JobRetries.Get(); got != int64(opts.tuning.maxRetries) {
				t.Fatalf("JobRetries = %d, want %d", got, opts.tuning.maxRetries)
			}
			if _, err := d.Get([]byte("k00000")); err != nil {
				t.Fatalf("read in read-only mode: %v", err)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestCloseDuringRepeatedlyFailingFlush: Close must neither hang nor leak
// while a flush is failing and retrying (before any escalation).
func TestCloseDuringRepeatedlyFailingFlush(t *testing.T) {
	for _, conc := range []int{1, 2} {
		t.Run(fmt.Sprintf("concurrency=%d", conc), func(t *testing.T) {
			mem := vfs.NewMemFS()
			efs := errorfs.Wrap(mem, 1)
			opts := faultOptions(efs, conc)
			opts.tuning.maxRetries = -1 // retry forever: escalation never rescues Close
			opts.tuning.retryMax = 50 * time.Millisecond
			// Plenty of immutable-queue headroom: the fill below must not stall,
			// since retry-forever means no background error ever releases it.
			opts.tuning.maxImm = 100
			d, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			rule := efs.Add(&errorfs.Rule{
				Ops:      []errorfs.Op{errorfs.OpCreate},
				PathGlob: "*.sst",
				Sticky:   true,
				Kind:     errorfs.FaultTransient,
			})
			// Fill past one rotation so a flush is pending and failing.
			for i := 0; i < 2500; i++ {
				if err := d.Put([]byte(fmt.Sprintf("k%05d", i)), storetest.Value(uint64(i), i)); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			deadline := time.Now().Add(30 * time.Second)
			for rule.Fired() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("flush never attempted")
				}
				time.Sleep(time.Millisecond)
			}
			done := make(chan error, 1)
			go func() { done <- d.Close() }()
			select {
			case err := <-done:
				// Close's own final flush hits the fault; the error is surfaced
				// but the shutdown still completed.
				if err != nil && !errors.Is(err, errorfs.ErrInjected) {
					t.Fatalf("Close: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Close deadlocked against a repeatedly failing flush")
			}
		})
	}
}

// TestWALCorruptionLocated: Open over a mid-log-corrupt WAL fails with a
// typed error naming the segment file and byte offset.
func TestWALCorruptionLocated(t *testing.T) {
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
	// Crash (abandon without Close), then flip a byte inside the first
	// record — mid-log, so replay must fail loudly rather than truncate.
	names, _ := fs.List("db")
	var logName string
	for _, n := range names {
		if strings.HasSuffix(n, ".log") {
			logName = "db/" + n
		}
	}
	if logName == "" {
		t.Fatal("no WAL found")
	}
	corruptByteAt(t, fs, logName, 6)

	_, err = Open("db", opts)
	if err == nil {
		t.Fatal("open over corrupt WAL succeeded")
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("error does not wrap wal.ErrCorrupt: %v", err)
	}
	var ce *wal.CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("error carries no CorruptionError: %v", err)
	}
	if ce.Path != logName {
		t.Fatalf("corruption located in %q, want %q", ce.Path, logName)
	}
	if ce.Offset != 0 {
		t.Fatalf("corruption offset = %d, want 0 (first frame)", ce.Offset)
	}
}

// TestManifestCorruptionLocated: manifest replay reports mid-log corruption
// with the manifest path and offset, mirroring the WAL path.
func TestManifestCorruptionLocated(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := testOptions(fs, &base.LogicalClock{})
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		d.Put([]byte(fmt.Sprintf("k%04d", i)), storetest.Value(uint64(i), i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		d.Put([]byte(fmt.Sprintf("j%04d", i)), storetest.Value(uint64(i), i))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Find the live manifest via CURRENT and corrupt an early byte; the
	// flush edits behind it make the damage mid-log, not a torn tail.
	cur, err := fs.Open("db/CURRENT")
	if err != nil {
		t.Fatal(err)
	}
	size, _ := cur.Size()
	buf := make([]byte, size)
	cur.ReadAt(buf, 0)
	vfs.BestEffortClose(cur)
	manifestName := "db/" + strings.TrimSpace(string(buf))
	corruptByteAt(t, fs, manifestName, 6)

	_, err = Open("db", opts)
	if err == nil {
		t.Fatal("open over corrupt manifest succeeded")
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("error does not wrap wal.ErrCorrupt: %v", err)
	}
	var ce *wal.CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("error carries no CorruptionError: %v", err)
	}
	if ce.Path != manifestName {
		t.Fatalf("corruption located in %q, want %q", ce.Path, manifestName)
	}
}

// corruptByteAt flips one byte of a file in place.
func corruptByteAt(t *testing.T, fs *vfs.MemFS, name string, off int64) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	if off >= size {
		t.Fatalf("corrupt offset %d beyond file size %d", off, size)
	}
	data := make([]byte, size)
	f.ReadAt(data, 0)
	vfs.BestEffortClose(f)
	data[off] ^= 0xFF
	w, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// assertNoOrphanTables fails if the store directory holds a table file the
// current version does not reference. Callers quiesce maintenance first, so
// nothing is legitimately between written and installed, or between replaced
// and unlinked.
func assertNoOrphanTables(t *testing.T, fs vfs.FS, d *DB) {
	t.Helper()
	live := make(map[base.FileNum]bool)
	d.vs.Current().AllFiles(func(_ int, f *manifest.FileMetadata) { live[f.FileNum] = true })
	names, err := fs.List(d.dirname)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if typ, fn, ok := manifest.ParseFilename(name); ok && typ == manifest.FileTypeTable && !live[fn] {
			t.Errorf("orphan table %s: on disk but in no version", name)
		}
	}
}

// TestTransientCompactionCommitLeavesNoOrphans: a maintenance job that fails
// after producing table files — at its manifest commit, or mid-merge with
// outputs already finished — must unlink everything it wrote, so the retry
// does not leak one set of files per attempt, and the manifest must forget
// the failed edit, so a reopen (after the retry, or with no retry at all)
// finds every file its log names. The one-shot fault is armed just before
// the step that makes the target job pickable — the range delete, or the
// third flush, with its countdown moved past that flush's own matching ops
// — so the first job after it is the one that meets it; the executor's
// backoff-retry then completes it. Pool size 0 is no pool: one synchronous
// MaintenanceStep fails and nothing retries.
func TestTransientCompactionCommitLeavesNoOrphans(t *testing.T) {
	const keys = 2000
	manifestSync := func() *errorfs.Rule {
		return &errorfs.Rule{Ops: []errorfs.Op{errorfs.OpSync}, PathGlob: "MANIFEST-*", Kind: errorfs.FaultTransient}
	}
	// What the third flush, which the merge cases arm before, does of each
	// fault's ops: its manifest syncs and its table writes.
	const flushManifestSyncs, flushTableWrites = 1, 27
	cases := []struct {
		name  string
		eager bool
		rule  func() *errorfs.Rule
	}{
		{"compaction/manifest-sync", false, func() *errorfs.Rule {
			r := manifestSync()
			r.Countdown = flushManifestSyncs + 1
			return r
		}},
		// The 40th table write of the merge lands in its third output file.
		{"compaction/sst-write-mid-merge", false, func() *errorfs.Rule {
			return &errorfs.Rule{Ops: []errorfs.Op{errorfs.OpWrite}, PathGlob: "*.sst", Countdown: flushTableWrites + 40, Kind: errorfs.FaultTransient}
		}},
		{"eager-rewrite/manifest-sync", true, manifestSync},
	}
	for _, tc := range cases {
		for _, conc := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("%s/concurrency=%d", tc.name, conc), func(t *testing.T) {
				efs := errorfs.Wrap(vfs.NewMemFS(), 1)
				opts := faultOptions(efs, conc)
				opts.DisableAutoMaintenance = conc == 0
				opts.MemTableBytes = 1 << 20 // the test flushes by hand
				opts.PagesPerTile = 4
				opts.EagerRangeDeletes = tc.eager
				opts.Compaction.L0Threshold = 3 // no job until the third flush
				d := mustOpen(t, opts)
				m := storetest.NewModel()
				var fault *errorfs.Rule
				put := func(round int, arm bool) {
					for i := 0; i < keys; i++ {
						k, v := fmt.Sprintf("k%05d", i), storetest.Value(uint64(i), round)
						if err := d.Put([]byte(k), v); err != nil {
							t.Fatal(err)
						}
						m.Put(k, v)
					}
					if arm {
						fault = efs.Add(tc.rule())
					}
					if err := d.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				put(0, false)
				if tc.eager {
					// One L0 file, half covered: an eager rewrite, no compaction.
					fault = efs.Add(tc.rule())
					if err := d.DeleteSecondaryRange(0, keys/2); err != nil {
						t.Fatal(err)
					}
					m.DeleteRange(0, keys/2)
				} else {
					// Three overlapping L0 files: a real merge, not a trivial move.
					put(1, false)
					put(2, true)
				}

				if conc == 0 {
					if _, err := d.MaintenanceStep(); err == nil || fault.Fired() == 0 {
						t.Fatalf("step met no fault: err=%v fired=%d", err, fault.Fired())
					}
				} else {
					deadline := time.Now().Add(30 * time.Second)
					for fault.Fired() == 0 || d.Stats().JobRetries.Get() == 0 {
						if time.Now().After(deadline) {
							t.Fatalf("fault never met a maintenance job (fired=%d retries=%d)", fault.Fired(), d.Stats().JobRetries.Get())
						}
						time.Sleep(time.Millisecond)
					}
					if err := d.WaitIdle(); err != nil {
						t.Fatalf("retry did not recover: %v", err)
					}
					if err := d.BackgroundError(); err != nil {
						t.Fatalf("transient fault escalated: %v", err)
					}
				}
				// The fault met the target job, not the flush armed before it.
				failed := 0
				for _, ji := range d.RecentMaintJobs() {
					if ji.Err == nil {
						continue
					}
					if failed++; ji.Kind != JobCompact {
						t.Fatalf("the fault met a %s job, not the compaction: %+v", ji.Kind, ji)
					}
				}
				if failed == 0 {
					t.Fatal("no failed job recorded")
				}
				assertNoOrphanTables(t, efs, d)
				if s := d.Stats(); s.FilesDeleted.Get() > s.FilesCreated.Get() {
					t.Fatalf("%d files reported deleted, only %d created", s.FilesDeleted.Get(), s.FilesCreated.Get())
				}
				check := func(d *DB) {
					t.Helper()
					for _, k := range m.Keys() {
						if v, err := d.Get([]byte(k)); err != nil || !bytes.Equal(v, m.Data[k]) {
							t.Fatalf("get %s = %x, %v; want %x", k, v, err, m.Data[k])
						}
					}
					if _, err := d.Get([]byte("k00000")); tc.eager && err != ErrNotFound {
						t.Fatalf("range-deleted key reads back: %v", err)
					}
				}
				check(d)
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				check(mustOpen(t, opts))
			})
		}
	}
}

// TestFailedJobKeepsItsClaim: a job that fails is recorded under the id, op
// and levels its JobClaim announced, so the two events pair up — a failed TTL
// compaction is not a fresh "compact/l0" at level 0, a failed flush not a job
// nobody claimed.
func TestFailedJobKeepsItsClaim(t *testing.T) {
	efs := errorfs.Wrap(vfs.NewMemFS(), 1)
	clk := &base.LogicalClock{}
	opts := kiwiOptions(efs, clk, false)
	opts.MemTableBytes = 1 << 20
	var events []event.Event
	opts.EventListener = func(e event.Event) {
		if e.Type == event.JobClaim || e.Type == event.JobError {
			events = append(events, e)
		}
	}
	d := mustOpen(t, opts)
	// One L0 file carrying tombstones over the data they delete, settled
	// deeper down: a single L0 run is under the L0 threshold, so past the DPT
	// only the TTL trigger wants it, and tombstones rule out a trivial move.
	putFlush(t, d, "k", 0, 200, 0, identityDK)
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i += 2 {
		if err := d.Delete([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * opts.Compaction.DPT)
	events = nil

	failNextTable := func() {
		efs.Add(&errorfs.Rule{Ops: []errorfs.Op{errorfs.OpCreate}, PathGlob: "*.sst", Kind: errorfs.FaultTransient})
	}
	failNextTable()
	if did, err := d.MaintenanceStep(); !did || err == nil {
		t.Fatalf("the TTL compaction should have met the fault: did=%v err=%v", did, err)
	}
	if err := d.Put([]byte("late"), storetest.Value(1, 1)); err != nil {
		t.Fatal(err)
	}
	failNextTable()
	if err := d.Flush(); err == nil {
		t.Fatal("the flush should have met the fault")
	}

	if len(events) != 4 {
		t.Fatalf("want claim, error, claim, error; got %v", events)
	}
	for i, op := range []string{"compact/ttl", "flush"} {
		claim, fail := events[2*i], events[2*i+1]
		if claim.Type != event.JobClaim || fail.Type != event.JobError || claim.Op != op {
			t.Fatalf("job %d: want a %s claim then its error, got %v then %v", i, op, claim, fail)
		}
		if fail.Job != claim.Job || fail.Op != claim.Op || fail.Level != claim.Level || fail.Policy != claim.Policy {
			t.Errorf("%s: error event %v does not pair with claim %v", op, fail, claim)
		}
	}
	// The ring carries the same identity.
	jobs := d.RecentMaintJobs()
	ttl, flush := jobs[len(jobs)-2], jobs[len(jobs)-1]
	if ttl.Err == nil || ttl.ID != events[0].Job || ttl.Kind != JobCompact || ttl.Trigger != compaction.TriggerTTL || ttl.OutputLevel != ttl.StartLevel+1 || ttl.Policy != "leveled" {
		t.Errorf("failed TTL compaction in the ring: %+v", ttl)
	}
	if flush.Err == nil || flush.ID != events[2].Job || flush.Kind != JobFlush {
		t.Errorf("failed flush in the ring: %+v", flush)
	}
}
