package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/manifest"
	"repro/internal/storetest"
	"repro/internal/vfs"
)

// slowFS delays sstable creation while armed, widening the window in which
// maintenance jobs overlap. Everything else passes straight through.
type slowFS struct {
	vfs.FS
	armed atomic.Bool
	delay time.Duration
}

func (s *slowFS) Create(name string) (vfs.File, error) {
	if s.armed.Load() && strings.HasSuffix(name, ".sst") {
		time.Sleep(s.delay)
	}
	return s.FS.Create(name)
}

// TestSchedulerConcurrentStress hammers a 3-executor engine (flush executor
// plus two compaction executors) with concurrent writers, point and range
// deletes, snapshots, readers and scanners, then reopens the store and
// scrubs it. Run with -race.
func TestSchedulerConcurrentStress(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := Options{
		FS:                fs,
		MemTableBytes:     32 << 10,
		DeleteKeyFunc:     storetest.DeleteKey,
		EagerRangeDeletes: true,
		Compaction: compaction.Options{
			SizeRatio:       4,
			L0Threshold:     2,
			BaseLevelBytes:  128 << 10,
			TargetFileBytes: 32 << 10,
			DPT:             base.Duration(50 * time.Millisecond),
			Picker:          compaction.PickFADE,
		},
	}
	tn := tune(&opts)
	tn.executors = 3
	tn.maxImm = 2
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const opsPerWriter = 4000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				k := []byte(fmt.Sprintf("w%d-k%05d", w, i%1200))
				var err error
				switch i % 23 {
				case 4, 9:
					err = d.Delete(k)
				case 17:
					lo := base.DeleteKey(uint64(w*opsPerWriter + i))
					err = d.DeleteSecondaryRange(lo, lo+40)
				case 21:
					b := NewBatch()
					b.Put(k, storetest.Value(uint64(i), i))
					b.Delete([]byte(fmt.Sprintf("w%d-k%05d", w, (i+7)%1200)))
					err = d.Apply(b)
				default:
					err = d.Put(k, storetest.Value(uint64(w*opsPerWriter+i), i))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if n%3 == 0 {
					s := d.NewSnapshot()
					k := []byte(fmt.Sprintf("w%d-k%05d", r, (r*31+n)%1200))
					if _, err := d.GetAt(k, s); err != nil && err != ErrNotFound {
						t.Errorf("snapshot get: %v", err)
						s.Release()
						return
					}
					s.Release()
					continue
				}
				it, err := d.NewIter(IterOptions{})
				if err != nil {
					t.Errorf("iter: %v", err)
					return
				}
				seen := 0
				for ok := it.First(); ok && seen < 300; ok = it.Next() {
					seen++
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

	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	jobs := d.RecentMaintJobs()
	if len(jobs) == 0 {
		t.Fatal("no maintenance jobs recorded under a stress workload")
	}
	for _, j := range jobs {
		if j.Err != nil {
			t.Fatalf("job %d (%s) failed: %v", j.ID, j.Kind, j.Err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	opts.DisableAutoMaintenance = true
	d2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.VerifyChecksums(); err != nil {
		t.Fatalf("scrub after stress: %v", err)
	}
}

// layoutString renders a version's physical layout — levels, run ids, file
// numbers, key bounds, entry counts — for exact comparison.
func layoutString(v *manifest.Version) string {
	var b strings.Builder
	for l := range v.Levels {
		for _, r := range v.Levels[l] {
			fmt.Fprintf(&b, "L%d run%d:", l, r.ID)
			for _, f := range r.Files {
				fmt.Fprintf(&b, " %d[%s..%s #%d]", f.FileNum, f.Smallest.UserKey, f.Largest.UserKey, f.NumEntries)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestSchedulerSerializedDeterminism replays one seeded trace twice through
// manually driven maintenance and requires bit-identical physical layouts:
// the refactor must keep the serialized mode's pick order, file numbering
// and run assignment exactly reproducible.
func TestSchedulerSerializedDeterminism(t *testing.T) {
	run := func() string {
		clk := &base.LogicalClock{}
		opts := testOptions(vfs.NewMemFS(), clk)
		opts.EagerRangeDeletes = true
		opts.Compaction.DPT = 50
		opts.Compaction.Picker = compaction.PickFADE
		d, err := Open("db", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 6000; i++ {
			k := []byte(fmt.Sprintf("k%05d", rng.Intn(2500)))
			switch rng.Intn(20) {
			case 0:
				if err := d.Delete(k); err != nil {
					t.Fatal(err)
				}
			case 1:
				lo := base.DeleteKey(rng.Intn(4000))
				if err := d.DeleteSecondaryRange(lo, lo+base.DeleteKey(rng.Intn(100)+1)); err != nil {
					t.Fatal(err)
				}
			default:
				if err := d.Put(k, storetest.Value(uint64(rng.Intn(4000)), i)); err != nil {
					t.Fatal(err)
				}
			}
			clk.Advance(1)
			if i%97 == 0 {
				if _, err := d.MaintenanceStep(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := d.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		return layoutString(d.vs.Current())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("serialized maintenance is not deterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}

// TestSchedulerTTLPreemption: with two compaction executors, a TTL-triggered
// (DPT-critical) compaction must be able to run while a saturation or L0
// compaction is still in flight, instead of queueing behind it. Slow sstable
// creation keeps jobs in flight long enough for the overlap to be observable
// in the per-job log.
func TestSchedulerTTLPreemption(t *testing.T) {
	fs := &slowFS{FS: vfs.NewMemFS(), delay: 3 * time.Millisecond}
	opts := Options{
		FS:            fs,
		MemTableBytes: 16 << 10,
		DeleteKeyFunc: storetest.DeleteKey,
		Compaction: compaction.Options{
			SizeRatio:       4,
			L0Threshold:     2,
			BaseLevelBytes:  64 << 10,
			TargetFileBytes: 8 << 10,
			DPT:             base.Duration(30 * time.Millisecond),
			Picker:          compaction.PickFADE,
		},
	}
	tune(&opts).executors = 3
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	fs.armed.Store(true)
	deadline := time.Now().Add(15 * time.Second)
	for round := 0; ; round++ {
		// Saturation fodder in the "a" keyspace, deletes (TTL fodder) in
		// the disjoint "b" keyspace.
		for i := 0; i < 1500; i++ {
			ka := []byte(fmt.Sprintf("a%06d", (round*1500+i)%5000))
			if err := d.Put(ka, storetest.Value(uint64(i), i)); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				kb := []byte(fmt.Sprintf("b%06d", (round*500+i)%3000))
				if err := d.Put(kb, storetest.Value(uint64(i)+1<<32, i)); err != nil {
					t.Fatal(err)
				}
			}
			if i%9 == 0 {
				kb := []byte(fmt.Sprintf("b%06d", (round*500+i)%3000))
				if err := d.Delete(kb); err != nil {
					t.Fatal(err)
				}
			}
		}
		time.Sleep(50 * time.Millisecond) // let DPT clocks expire and jobs overlap

		jobs := d.RecentMaintJobs()
		for _, tj := range jobs {
			if tj.Kind != JobCompact || tj.Trigger != compaction.TriggerTTL {
				continue
			}
			for _, sj := range jobs {
				if sj.Kind != JobCompact || sj.Trigger == compaction.TriggerTTL || sj.ID == tj.ID {
					continue
				}
				// Overlap: the TTL job ran inside the other job's window.
				if tj.Started.Before(sj.Finished) && sj.Started.Before(tj.Finished) {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no TTL compaction overlapped a saturation/L0 compaction after %d rounds (%d jobs recorded)", round+1, len(jobs))
		}
	}
}

// TestSchedulerWriteBackpressure: with a one-deep immutable queue and slow
// flushes, a fast writer must hit the stall path (and get released by flush
// completions) rather than queueing memtables without bound.
func TestSchedulerWriteBackpressure(t *testing.T) {
	fs := &slowFS{FS: vfs.NewMemFS(), delay: 2 * time.Millisecond}
	fs.armed.Store(true)
	opts := Options{
		FS:            fs,
		MemTableBytes: 4 << 10,
		DeleteKeyFunc: storetest.DeleteKey,
		Compaction: compaction.Options{
			SizeRatio:       4,
			L0Threshold:     4,
			BaseLevelBytes:  64 << 10,
			TargetFileBytes: 16 << 10,
		},
	}
	tn := tune(&opts)
	tn.executors = 2
	tn.maxImm = 1
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%06d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Lock()
	queued := len(d.imm)
	d.mu.Unlock()
	if max := opts.tuning.maxImm; queued > max+1 {
		t.Fatalf("immutable queue reached %d with a stall limit of %d", queued, max)
	}
	if d.stats.WriteStalls.Get() == 0 {
		t.Fatal("a fast writer against 2ms flushes never stalled")
	}
	if d.stats.WriteStallNanos.Get() == 0 {
		t.Fatal("stalls were counted but no stall time accumulated")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// gateFS blocks sstable creation while armed until the gate channel is
// closed, pinning a flush in flight for as long as a test needs.
type gateFS struct {
	vfs.FS
	armed atomic.Bool
	gate  chan struct{}
	// parked counts the creates waiting on gate right now.
	parked atomic.Int32
}

func (g *gateFS) Create(name string) (vfs.File, error) {
	if g.armed.Load() && strings.HasSuffix(name, ".sst") {
		g.parked.Add(1)
		<-g.gate
		g.parked.Add(-1)
	}
	return g.FS.Create(name)
}

// TestSchedulerCloseReleasesStalledWriter: a writer stalled on backpressure
// must be woken by Close and return ErrClosed, even though the flush that
// would normally release it is stuck — shutdown itself is a stall-exit
// condition, not just maintenance progress.
func TestSchedulerCloseReleasesStalledWriter(t *testing.T) {
	fs := &gateFS{FS: vfs.NewMemFS(), gate: make(chan struct{})}
	opts := Options{
		FS:            fs,
		MemTableBytes: 4 << 10,
		DeleteKeyFunc: storetest.DeleteKey,
	}
	tn := tune(&opts)
	tn.executors = 2
	tn.maxImm = 1
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	fs.armed.Store(true)

	writerDone := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if err := d.Put([]byte(fmt.Sprintf("k%06d", i)), storetest.Value(uint64(i), i)); err != nil {
				writerDone <- err
				return
			}
		}
	}()

	// Wait for the writer to stall behind the gated flush.
	deadline := time.Now().Add(10 * time.Second)
	for d.stats.WriteStalls.Get() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never stalled against a gated flush")
		}
		time.Sleep(time.Millisecond)
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- d.Close() }()

	// The stalled writer must observe the shutdown while the flush is
	// still pinned — no maintenance completion will ever re-broadcast.
	select {
	case err := <-writerDone:
		if err != ErrClosed {
			t.Fatalf("stalled writer returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled writer still blocked 10s after Close began")
	}
	close(fs.gate) // release the pinned flush so Close can finish
	if err := <-closeDone; err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestExecutorsRunBesideCompactAll: CompactAll's merges are claimed jobs
// like any other, so while one of them is parked the executors still run
// work disjoint from it. The level-5 merge is parked on the gate; a TTL
// push of a fresh tombstone file out of level 0 must then run and finish
// inside the merge's window. The level-0 threshold is out of reach, so the
// push has no other trigger.
func TestExecutorsRunBesideCompactAll(t *testing.T) {
	fs := &gateFS{FS: vfs.NewMemFS(), gate: make(chan struct{})}
	var openGate sync.Once
	release := func() { openGate.Do(func() { close(fs.gate) }) }
	opts := Options{
		FS:                      fs,
		MemTableBytes:           1 << 20, // the test flushes by hand
		DeleteKeyFunc:           storetest.DeleteKey,
		MaintenanceTickInterval: time.Millisecond,
		Compaction: compaction.Options{
			SizeRatio:       4,
			L0Threshold:     4,
			BaseLevelBytes:  64 << 10,
			TargetFileBytes: 16 << 10,
			DPT:             base.Duration(200 * time.Millisecond),
			Picker:          compaction.PickFADE,
		},
	}
	tune(&opts).executors = 2
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defer release()

	// All data at the bottom, and one tombstone-free table over part of it
	// in level 0, below the L0 threshold: CompactAll moves that table down
	// trivially and first writes a file when it merges level 5 into 6.
	putFlush(t, d, "k", 0, 2000, 0, identityDK)
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	putFlush(t, d, "k", 0, 500, 1, identityDK)
	if err := d.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	fs.armed.Store(true)
	compacted := make(chan error, 1)
	go func() { compacted <- d.CompactAllCtx(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for fs.parked.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("CompactAll's merge never reached the gate")
		}
		time.Sleep(100 * time.Microsecond)
	}
	fs.armed.Store(false) // the parked merge stays parked; new tables pass

	// A level-0 table of tombstones, expired against the wall-clock DPT
	// while the merge is parked: only an executor can push it down. The
	// table flushed first keeps level 0 non-empty, so the tombstones' own
	// flush cannot merge them into level 1 itself.
	putFlush(t, d, "j", 0, 100, 2, identityDK)
	for i := 0; i < 200; i++ {
		if err := d.Delete([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	ttlDone := func() (JobInfo, bool) {
		for _, j := range d.RecentMaintJobs() {
			if j.Kind == JobCompact && j.Trigger == compaction.TriggerTTL && j.Err == nil {
				return j, true
			}
		}
		return JobInfo{}, false
	}
	for {
		if _, ok := ttlDone(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no TTL job finished while CompactAll's merge was parked")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}

	tj, _ := ttlDone()
	jobs := d.RecentMaintJobs()
	for i := len(jobs) - 1; i >= 0; i-- { // the latest: the first CompactAll has one too
		if cj := jobs[i]; cj.Kind == JobCompact && cj.Trigger == compaction.TriggerSaturation && cj.StartLevel == 5 {
			if !(cj.Started.Before(tj.Started) && tj.Finished.Before(cj.Finished)) {
				t.Fatalf("TTL job %+v did not run inside CompactAll's merge %+v", tj, cj)
			}
			return
		}
	}
	t.Fatalf("no level-5 merge by CompactAll in %+v", jobs)
}

// TestCompactAllBesideWritersStress: writers, three executors and repeated
// CompactAll calls race on one store, which must end equal to the model.
// Each writer owns its key space, so the writers' own models add up to it.
func TestCompactAllBesideWritersStress(t *testing.T) {
	opts := Options{
		FS:                      vfs.NewMemFS(),
		MemTableBytes:           16 << 10,
		DeleteKeyFunc:           storetest.DeleteKey,
		MaintenanceTickInterval: time.Millisecond,
		Compaction: compaction.Options{
			SizeRatio:       4,
			L0Threshold:     2,
			BaseLevelBytes:  64 << 10,
			TargetFileBytes: 8 << 10,
			DPT:             base.Duration(20 * time.Millisecond),
			Picker:          compaction.PickFADE,
		},
	}
	tune(&opts).executors = 3
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const writers, opsPerWriter = 3, 5000
	models := make([]*storetest.Model, writers)
	var wg sync.WaitGroup
	for w := range models {
		models[w] = storetest.NewModel()
		wg.Add(1)
		go func(w int, m *storetest.Model) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWriter; i++ {
				k := fmt.Sprintf("w%d-k%04d", w, rng.Intn(800))
				if rng.Intn(4) == 0 {
					if err := d.Delete([]byte(k)); err != nil {
						t.Error(err)
						return
					}
					m.Delete(k)
					continue
				}
				v := storetest.Value(uint64(i), i)
				if err := d.Put([]byte(k), v); err != nil {
					t.Error(err)
					return
				}
				m.Put(k, v)
			}
		}(w, models[w])
	}
	writing := make(chan struct{})
	compactions := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-writing:
				compactions <- n
				return
			default:
			}
			if err := d.CompactAll(); err != nil {
				t.Error(err)
			}
			n++
		}
	}()
	wg.Wait()
	close(writing)
	if n := <-compactions; n == 0 {
		t.Fatal("no CompactAll ran beside the writers")
	}
	if t.Failed() {
		return
	}

	m := storetest.NewModel()
	for _, wm := range models {
		for k, v := range wm.Data {
			m.Put(k, v)
		}
	}
	if err := d.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	storetest.Check(t, target(d), m, 0)
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	storetest.Check(t, target(d), m, 1)
	if err := d.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitIdleWaitsOutSynchronousStep: a job a synchronous MaintenanceStep
// runs is counted like an executor's, so WaitIdle on another goroutine
// waits for it instead of taking its claim for idleness.
func TestWaitIdleWaitsOutSynchronousStep(t *testing.T) {
	fs := &gateFS{FS: vfs.NewMemFS(), gate: make(chan struct{})}
	var openGate sync.Once
	release := func() { openGate.Do(func() { close(fs.gate) }) }
	d, err := Open("db", testOptions(fs, &base.LogicalClock{}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defer release()
	// Two overlapping level-0 tables: an L0 merge is due.
	putFlush(t, d, "k", 0, 300, 0, identityDK)
	putFlush(t, d, "k", 0, 300, 1, identityDK)

	fs.armed.Store(true)
	stepped := make(chan error, 1)
	go func() {
		_, err := d.MaintenanceStep()
		stepped <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for fs.parked.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the step's merge never reached the gate")
		}
		time.Sleep(100 * time.Microsecond)
	}

	idle := make(chan error, 1)
	go func() { idle <- d.WaitIdle() }()
	select {
	case err := <-idle:
		t.Fatalf("WaitIdle returned %v while another goroutine's merge was parked", err)
	case <-time.After(100 * time.Millisecond):
	}
	fs.armed.Store(false)
	release()
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	if err := <-idle; err != nil {
		t.Fatal(err)
	}
	if n := len(d.vs.Current().Levels[0]); n != 0 {
		t.Fatalf("%d level-0 runs left after WaitIdle", n)
	}
}
