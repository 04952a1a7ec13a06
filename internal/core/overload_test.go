package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/base"
	"repro/internal/storetest"
	"repro/internal/vfs"
	"repro/internal/vfs/errorfs"
)

// stallOptions builds a configuration whose stall gate is easy to saturate:
// tiny memtables, a one-deep immutable queue, and flushes pinned by the
// supplied gateFS until its gate channel is closed.
func stallOptions(fs vfs.FS) Options {
	opts := Options{
		FS:                      fs,
		MemTableBytes:           4 << 10,
		DeleteKeyFunc:           storetest.DeleteKey,
		MaintenanceTickInterval: time.Millisecond,
	}
	tn := tune(&opts)
	tn.executors = 2
	tn.maxImm = 1
	return opts
}

// fillToStallThreshold writes until the immutable queue is full, so the NEXT
// commit is guaranteed to hit the stall gate. Every write issued here
// completes without stalling: the gate runs before the rotation that fills
// the queue.
func fillToStallThreshold(t *testing.T, d *DB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; d.stats.FlushQueueDepth.Get() < int64(d.opts.tuning.maxImm); i++ {
		if time.Now().After(deadline) {
			t.Fatal("immutable queue never filled against a gated flush")
		}
		if err := d.Put([]byte(fmt.Sprintf("fill%06d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStallDeadlineExceeded is the acceptance scenario for cancellable write
// stalls: a writer with a 50ms deadline behind a saturated stall gate must
// return an error wrapping context.DeadlineExceeded promptly instead of
// hanging until maintenance frees the backlog, and a second writer cancelled
// while parked in the commit queue must withdraw without consuming a
// sequence number.
func TestStallDeadlineExceeded(t *testing.T) {
	fs := &gateFS{FS: vfs.NewMemFS(), gate: make(chan struct{})}
	opts := stallOptions(fs)
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	fs.armed.Store(true)
	fillToStallThreshold(t, d)

	// The stalling writer leads its own commit round; run it in a goroutine
	// so the main goroutine can enqueue a follower behind it.
	leaderErr := make(chan error, 1)
	leaderStart := time.Now()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		leaderErr <- d.PutCtx(ctx, []byte("stalled"), storetest.Value(1, 1))
	}()

	// Wait until the leader is parked in the stall gate, then enqueue a
	// follower with its own (shorter) deadline. The leader holds the round
	// until its 50ms deadline, so the follower's cancellation must withdraw
	// it from the arrival queue.
	deadline := time.Now().Add(10 * time.Second)
	for d.stats.WriteStalls.Get() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never reached the stall gate")
		}
		time.Sleep(100 * time.Microsecond)
	}
	fctx, fcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer fcancel()
	ferr := d.PutCtx(fctx, []byte("queued"), storetest.Value(2, 2))
	if !errors.Is(ferr, context.DeadlineExceeded) {
		t.Fatalf("queued follower returned %v, want wrapped context.DeadlineExceeded", ferr)
	}
	if got := d.stats.CommitCancels.Get(); got != 1 {
		t.Fatalf("CommitCancels = %d, want 1", got)
	}

	var lerr error
	select {
	case lerr = <-leaderErr:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled writer hung past its 50ms deadline")
	}
	elapsed := time.Since(leaderStart)
	if !errors.Is(lerr, context.DeadlineExceeded) {
		t.Fatalf("stalled writer returned %v, want wrapped context.DeadlineExceeded", lerr)
	}
	// The acceptance bound is ~2x the deadline; allow slack for loaded CI
	// machines, but a wait anywhere near the stall's natural (unbounded)
	// duration is a failure.
	if elapsed > 2*time.Second {
		t.Fatalf("stalled writer took %v to observe its 50ms deadline", elapsed)
	}
	if d.stats.StallTimeouts.Get() == 0 {
		t.Fatal("StallTimeouts not bumped for the expired stall")
	}
	if d.stats.StallsByCause[stallCauseImm].Get() == 0 {
		t.Fatal("imm-memtable stall cause not counted")
	}
	if d.stats.StallWaitByCause[stallCauseImm].Count() == 0 {
		t.Fatal("imm-memtable stall wait histogram empty")
	}
	// Neither failed writer may have published anything.
	for _, k := range []string{"stalled", "queued"} {
		if _, err := d.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%q) after failed write = %v, want ErrNotFound", k, err)
		}
	}

	// Release the backlog: writes must flow again (overload is a condition,
	// not a terminal state).
	close(fs.gate)
	deadline = time.Now().Add(10 * time.Second)
	for {
		if err := d.Put([]byte("after"), storetest.Value(3, 3)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writes never recovered after the flush gate opened")
		}
		time.Sleep(time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMaintenanceBarrierHonorsContext covers the CompactAllCtx routing
// through the deadline-aware quiesce: a caller behind a pinned maintenance job
// gets its context error back instead of waiting the job out. CheckpointCtx
// quiesces nothing; its context is checked between file copies.
func TestMaintenanceBarrierHonorsContext(t *testing.T) {
	fs := &gateFS{FS: vfs.NewMemFS(), gate: make(chan struct{})}
	opts := stallOptions(fs)
	opts.tuning.maxImm = -1 // no stalls: this test is about the barrier
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	fs.armed.Store(true)
	// Rotate once so the background executor picks up a flush and pins
	// inside the gated sstable create.
	for i := 0; d.stats.FlushQueueDepth.Get() == 0; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%06d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the flush itself to park on the gate: an executor merely
	// running (another's empty compaction step) would let CompactAllCtx
	// past the barrier to flush inline into the gate, never to return.
	waitDeadline := time.Now().Add(10 * time.Second)
	for fs.parked.Load() == 0 {
		if time.Now().After(waitDeadline) {
			t.Fatal("no executor ever claimed the gated flush")
		}
		time.Sleep(100 * time.Microsecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := d.CompactAllCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CompactAllCtx behind a pinned flush = %v, want wrapped context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("CompactAllCtx took %v to observe its 50ms deadline", elapsed)
	}

	// Release the flush and settle, then interrupt a checkpoint's copy loop
	// with an already-cancelled context: it must fail without producing an
	// openable checkpoint.
	close(fs.gate)
	fs.armed.Store(false)
	if err := d.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if err := d.CheckpointCtx(cctx, "ckpt-cancelled"); !errors.Is(err, context.Canceled) {
		t.Fatalf("CheckpointCtx with cancelled ctx = %v, want wrapped context.Canceled", err)
	}
	if d.stats.Checkpoints.Get() != 0 {
		t.Fatal("cancelled checkpoint counted as completed")
	}
	// The un-cancelled path still works.
	if err := d.Checkpoint("ckpt-ok"); err != nil {
		t.Fatalf("Checkpoint after cancelled attempt: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOverloadStressRandomCancels hammers an admission-controlled store with
// writers far above the admitted rate, under random deadlines and
// cancellations, and asserts the only errors that escape are the documented
// overload taxonomy — and that no goroutines leak (the run is race-gated by
// the Makefile's Stress pattern, so the -race build also vets every wakeup
// path exercised here).
func TestOverloadStressRandomCancels(t *testing.T) {
	baseline := runtime.NumGoroutine()
	opts := Options{
		FS:                      vfs.NewMemFS(),
		MemTableBytes:           32 << 10,
		DeleteKeyFunc:           storetest.DeleteKey,
		MaintenanceTickInterval: time.Millisecond,
		Admission: admission.Config{
			WriteRate:  5000,
			WriteBurst: 50,
			ReadRate:   20000,
			MaxWait:    2 * time.Millisecond,
		},
	}
	tn := tune(&opts)
	tn.executors = 2
	tn.maxImm = 2
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 8
	const opsPerWriter = 400
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWriter; i++ {
				var (
					ctx    context.Context
					cancel context.CancelFunc
				)
				switch rng.Intn(4) {
				case 0:
					ctx = context.Background()
				case 1:
					ctx, cancel = context.WithTimeout(context.Background(), 200*time.Microsecond)
				case 2:
					ctx, cancel = context.WithCancel(context.Background())
					timer := time.AfterFunc(100*time.Microsecond, cancel)
					defer timer.Stop()
				default:
					ctx, cancel = context.WithCancel(context.Background())
					cancel() // already expired on entry
				}
				key := []byte(fmt.Sprintf("w%02d-%04d", w, i))
				var err error
				if rng.Intn(4) == 0 {
					_, err = d.GetCtx(ctx, key)
					if errors.Is(err, ErrNotFound) {
						err = nil
					}
				} else {
					err = d.PutCtx(ctx, key, storetest.Value(uint64(i), w))
				}
				if cancel != nil {
					cancel()
				}
				if err != nil &&
					!errors.Is(err, ErrOverloaded) &&
					!errors.Is(err, context.DeadlineExceeded) &&
					!errors.Is(err, context.Canceled) {
					select {
					case errCh <- fmt.Errorf("writer %d op %d: unexpected error %w", w, i, err):
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	wm := d.Admission().ClassMetrics(admission.ClassWrite)
	if wm.Admitted.Get() == 0 {
		t.Fatal("no writes admitted under overload")
	}
	if wm.Rejected.Get()+wm.Shed.Get() == 0 {
		t.Fatal("overload stress never rejected or shed a write: the gate is not engaging")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// All writer, executor, and context-wake goroutines must unwind.
	leakDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOverloadStressBoundedClose: writers queued inside the admission gate
// (a starved one-token bucket with a long MaxWait) must not delay shutdown —
// Close releases them promptly with ErrClosed.
func TestOverloadStressBoundedClose(t *testing.T) {
	opts := testOptions(vfs.NewMemFS(), &base.LogicalClock{})
	opts.DisableAutoMaintenance = false
	opts.MaintenanceTickInterval = time.Millisecond
	opts.Admission = admission.Config{
		WriteRate:  1, // ~1s between tokens: writers park in the gate
		WriteBurst: 1,
		MaxWait:    10 * time.Second,
	}
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the single burst token so the writers below must queue.
	if err := d.Put([]byte("first"), storetest.Value(1, 1)); err != nil {
		t.Fatal(err)
	}

	const writers = 4
	writerErrs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			writerErrs <- d.Put([]byte(fmt.Sprintf("queued%d", w)), storetest.Value(uint64(w), w))
		}(w)
	}
	time.Sleep(50 * time.Millisecond) // let the writers reach the gate

	closeDone := make(chan error, 1)
	go func() { closeDone <- d.Close() }()
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind writers queued in admission")
	}
	for w := 0; w < writers; w++ {
		select {
		case err := <-writerErrs:
			// A writer that won the ~1s token before Close may also have
			// committed successfully; anything else must be ErrClosed.
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Fatalf("queued writer returned %v, want ErrClosed or nil", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("writer still queued in admission after Close returned")
		}
	}
}

// TestCancelledCommitAtomicity proves a cancelled commit never publishes a
// half-applied group: concurrent writers apply two-key batches under random
// tight deadlines while seeded errorfs faults keep background maintenance
// retrying, and at no point — during the run, or after reopening — may a
// reader observe one key of a pair without the other.
func TestCancelledCommitAtomicity(t *testing.T) {
	mem := vfs.NewMemFS()
	efs := errorfs.Wrap(mem, 42)
	// Transient write faults on sstable output: flushes fail and retry,
	// stretching the imm-memtable backlog so commit-time cancellations hit
	// every phase of the pipeline. Retries are unbounded — transient faults
	// must not escalate to read-only and fail the foreground path.
	efs.Add(&errorfs.Rule{
		Ops:      []errorfs.Op{errorfs.OpWrite},
		PathGlob: "*.sst",
		Prob:     0.3,
		Kind:     errorfs.FaultTransient,
	})
	opts := faultOptions(efs, 2)
	opts.tuning.maxRetries = -1

	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const rounds = 150
	pairKeys := func(w, i int) ([]byte, []byte) {
		return []byte(fmt.Sprintf("a|%d|%03d", w, i)), []byte(fmt.Sprintf("b|%d|%03d", w, i))
	}
	var applied [writers][rounds]bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < rounds; i++ {
				ka, kb := pairKeys(w, i)
				val := storetest.Value(uint64(w*rounds+i), i)
				b := NewBatch()
				b.Put(ka, val)
				b.Put(kb, val)
				var (
					ctx    context.Context
					cancel context.CancelFunc
				)
				switch rng.Intn(4) {
				case 0:
					ctx = context.Background() // no deadline
				case 1:
					ctx, cancel = context.WithTimeout(context.Background(), 200*time.Microsecond)
				case 2:
					ctx, cancel = context.WithTimeout(context.Background(), 2*time.Millisecond)
				default:
					ctx, cancel = context.WithCancel(context.Background())
					cancel()
				}
				err := d.ApplyCtx(ctx, b)
				if cancel != nil {
					cancel()
				}
				applied[w][i] = err == nil
			}
		}(w)
	}

	// Concurrent checker: pair atomicity must hold in every snapshot taken
	// while the writers race.
	checkPair := func(snap *Snapshot, w, i int) error {
		ka, kb := pairKeys(w, i)
		va, erra := d.GetAt(ka, snap)
		vb, errb := d.GetAt(kb, snap)
		aMissing := errors.Is(erra, ErrNotFound)
		bMissing := errors.Is(errb, ErrNotFound)
		switch {
		case aMissing && bMissing:
			return nil
		case erra != nil || errb != nil:
			return fmt.Errorf("pair (%d,%d) torn: %q=%v %q=%v", w, i, ka, erra, kb, errb)
		case string(va) != string(vb):
			return fmt.Errorf("pair (%d,%d) values differ", w, i)
		}
		return nil
	}
	stop := make(chan struct{})
	checkerErr := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				checkerErr <- nil
				return
			default:
			}
			snap := d.NewSnapshot()
			for n := 0; n < 32; n++ {
				if err := checkPair(snap, rng.Intn(writers), rng.Intn(rounds)); err != nil {
					snap.Release()
					checkerErr <- err
					return
				}
			}
			snap.Release()
		}
	}()

	wg.Wait()
	close(stop)
	if err := <-checkerErr; err != nil {
		t.Fatal(err)
	}

	// Final state: an ApplyCtx that returned nil must have published both
	// keys; an error means neither was.
	verify := func(d *DB, phase string) {
		for w := 0; w < writers; w++ {
			for i := 0; i < rounds; i++ {
				ka, kb := pairKeys(w, i)
				_, erra := d.Get(ka)
				_, errb := d.Get(kb)
				if applied[w][i] {
					if erra != nil || errb != nil {
						t.Fatalf("%s: applied pair (%d,%d) incomplete: %v / %v", phase, w, i, erra, errb)
					}
				} else if !errors.Is(erra, ErrNotFound) || !errors.Is(errb, ErrNotFound) {
					t.Fatalf("%s: cancelled pair (%d,%d) leaked: %v / %v", phase, w, i, erra, errb)
				}
			}
		}
	}
	verify(d, "live")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// WAL replay must reconstruct exactly the committed pairs.
	reopened, err := Open("db", faultOptions(mem, 2))
	if err != nil {
		t.Fatal(err)
	}
	verify(reopened, "reopened")
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
}
