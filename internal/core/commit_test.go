package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/event"
	"repro/internal/storetest"
	"repro/internal/vfs"
	"repro/internal/vfs/errorfs"
)

// TestGroupCommitStressConcurrent drives the commit pipeline with many
// concurrent writers mixing puts, deletes, batches, and secondary range
// deletes, while readers iterate and take snapshots. Key and delete-key
// spaces are partitioned per writer, so each writer can verify
// read-your-writes against its private model without locking, and the
// merged models form the reference for a final full-scan equivalence
// check. Also asserts the pipeline actually grouped commits: with
// SyncWrites and this much contention, at least one WAL write must have
// carried more than one commit. The syncs take a little time, as a disk's
// would, so that a commit can queue behind one even with a single P.
func TestGroupCommitStressConcurrent(t *testing.T) {
	opts := Options{
		FS:            slowSyncFS{vfs.NewMemFS(), 20 * time.Microsecond},
		MemTableBytes: 64 << 10,
		DeleteKeyFunc: storetest.DeleteKey,
		SyncWrites:    true,
		Compaction: compaction.Options{
			SizeRatio:       4,
			L0Threshold:     2,
			BaseLevelBytes:  128 << 10,
			TargetFileBytes: 32 << 10,
			DPT:             base.Duration(50 * time.Millisecond),
			Picker:          compaction.PickFADE,
		},
		// Auto maintenance ON: rotations, flushes, and stalls all race the
		// commit pipeline, which is the point.
	}
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 8
	const opsPerWriter = 1200
	const keysPerWriter = 300
	const dkSpan = 1000 // writer w owns delete keys [w*dkSpan, (w+1)*dkSpan)

	models := make([]*storetest.Model, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		models[w] = storetest.NewModel()
		wg.Add(1)
		go func(w int, m *storetest.Model) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			dkBase := uint64(w * dkSpan)
			key := func(i int) string { return fmt.Sprintf("w%d-k%05d", w, i%keysPerWriter) }
			for i := 0; i < opsPerWriter; i++ {
				k := key(i)
				dk := dkBase + uint64(rng.Intn(dkSpan-20))
				switch p := rng.Intn(100); {
				case p < 55:
					v := storetest.Value(dk, i)
					if err := d.Put([]byte(k), v); err != nil {
						t.Errorf("writer %d Put: %v", w, err)
						return
					}
					m.Put(k, v)
				case p < 70:
					if err := d.Delete([]byte(k)); err != nil {
						t.Errorf("writer %d Delete: %v", w, err)
						return
					}
					m.Delete(k)
				case p < 85:
					b := NewBatch()
					for j := 0; j < 3; j++ {
						bk := key(i + j)
						if j == 2 {
							b.Delete([]byte(bk))
						} else {
							b.Put([]byte(bk), storetest.Value(dk, i+j))
						}
					}
					if err := d.Apply(b); err != nil {
						t.Errorf("writer %d Apply: %v", w, err)
						return
					}
					for j := 0; j < 3; j++ {
						bk := key(i + j)
						if j == 2 {
							m.Delete(bk)
						} else {
							m.Put(bk, storetest.Value(dk, i+j))
						}
					}
				default:
					lo := dk
					hi := lo + uint64(1+rng.Intn(20))
					if err := d.DeleteSecondaryRange(lo, hi); err != nil {
						t.Errorf("writer %d DeleteSecondaryRange: %v", w, err)
						return
					}
					m.DeleteRange(lo, hi)
				}
				// Read-your-writes: this writer is the only mutator of its
				// partition, so a Get must reflect the model exactly.
				if i%17 == 0 {
					want, ok := m.Data[k]
					got, err := d.Get([]byte(k))
					switch {
					case err == ErrNotFound:
						if ok {
							t.Errorf("writer %d lost own write %q", w, k)
							return
						}
					case err != nil:
						t.Errorf("writer %d Get(%q): %v", w, k, err)
						return
					case !ok || string(got) != string(want):
						t.Errorf("writer %d read-your-writes divergence at %q", w, k)
						return
					}
				}
			}
		}(w, models[w])
	}

	// Readers: full-scan order checks and snapshot-sequence monotonicity.
	// The published-seqnum ratchet guarantees a snapshot never sees a
	// half-applied group and successive snapshots never go backwards.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			var lastSeq base.SeqNum
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := d.NewSnapshot()
				if snap.Seq() < lastSeq {
					t.Errorf("reader %d: snapshot seq went backwards: %d < %d", r, snap.Seq(), lastSeq)
					snap.Release()
					return
				}
				lastSeq = snap.Seq()
				it, err := d.NewIter(IterOptions{Snapshot: snap})
				if err != nil {
					t.Errorf("reader %d iter: %v", r, err)
					snap.Release()
					return
				}
				prev := ""
				n := 0
				for ok := it.First(); ok && n < 400; ok = it.Next() {
					k := string(it.Key())
					if prev != "" && k <= prev {
						t.Errorf("reader %d: iteration disorder %q after %q", r, k, prev)
					}
					prev = k
					n++
				}
				if err := it.Close(); err != nil {
					t.Errorf("reader %d iter close: %v", r, err)
					snap.Release()
					return
				}
				snap.Release()
				// Let the writers run between scans, also with one P.
				runtime.Gosched()
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if t.Failed() {
		return
	}

	// Merge the disjoint per-writer models and compare against the engine.
	merged := storetest.NewModel()
	for _, m := range models {
		for k, v := range m.Data {
			merged.Data[k] = v
		}
	}
	storetest.Check(t, target(d), merged, 7)

	// Group commit must have amortized at least once under this contention.
	if max := d.stats.WALGroupSize.Max(); max < 2 {
		t.Errorf("no commit group ever held more than one commit (max group size %d)", max)
	}
	appends, syncs := d.stats.WALAppends.Get(), d.stats.WALSyncs.Get()
	t.Logf("wal_appends=%d wal_syncs=%d commits_per_sync=%.2f max_group=%d",
		appends, syncs, d.stats.CommitsPerSync(), d.stats.WALGroupSize.Max())
	if syncs == 0 {
		t.Errorf("SyncWrites run recorded zero WAL syncs")
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitConcurrentCrashDurability proves the pipeline's
// sync-before-ack contract under concurrency: with SyncWrites, any commit
// acknowledged before a crash snapshot must survive recovery, even though
// the fsync that made it durable was shared with other writers' commits.
//
// An errorfs FaultNone hook on WAL syncs captures a CrashClone mid-run; a
// crash flag is raised before the clone is taken, so a writer that observes
// the flag still down after an op returns knows the op was acknowledged —
// and therefore group-synced — strictly before the snapshot. Each writer
// records those ops in a private acked set (keys are unique per op). After
// "crashing" (abandoning the handle without Close), the test reopens from
// the clone and requires:
//
//   - every acked key is present with its exact value;
//   - every recovered key belongs to an acked or in-flight op (nothing
//     unissued resurfaces);
//   - an in-flight *batch* recovers atomically: all of its keys or none.
func TestGroupCommitConcurrentCrashDurability(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			groupCrashRound(t, seed)
		})
	}
}

func groupCrashRound(t *testing.T, seed int64) {
	mem := vfs.NewMemFS()
	efs := errorfs.Wrap(mem, seed)
	opts := testOptions(efs, &base.LogicalClock{})
	opts.SyncWrites = true
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}

	// Install the crash point after Open so recovery I/O does not consume
	// the countdown. Order inside the hook matters: the flag goes up
	// BEFORE the clone is taken, so flag-down-after-ack implies
	// acked-before-clone (never the converse, which would claim durability
	// for writes the snapshot missed).
	var crashed atomic.Bool
	var crash *vfs.MemFS
	var hookMu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	efs.Add(&errorfs.Rule{
		Ops:       []errorfs.Op{errorfs.OpSync},
		PathGlob:  "*.log",
		Countdown: 20 + rng.Intn(40),
		Kind:      errorfs.FaultNone,
		Hook: func(errorfs.Op, string) {
			hookMu.Lock()
			defer hookMu.Unlock()
			if crash == nil {
				crashed.Store(true)
				crash = mem.CrashClone()
			}
		},
	})

	const writers = 6
	type writerLog struct {
		acked    map[string][]byte // unique key -> value, acked before crash
		inFlight []string          // keys of the one ambiguous trailing op
		wasBatch bool
	}
	logs := make([]*writerLog, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		logs[w] = &writerLog{acked: map[string][]byte{}}
		wg.Add(1)
		go func(w int, lg *writerLog) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed*100 + int64(w)))
			for i := 0; !crashed.Load(); i++ {
				var keys []string
				var vals [][]byte
				isBatch := wrng.Intn(4) == 0
				n := 1
				if isBatch {
					n = 3
				}
				for j := 0; j < n; j++ {
					keys = append(keys, fmt.Sprintf("w%d-%06d-%d", w, i, j))
					vals = append(vals, storetest.Value(uint64(w*1000+i), i))
				}
				var err error
				if isBatch {
					b := NewBatch()
					for j := range keys {
						b.Put([]byte(keys[j]), vals[j])
					}
					err = d.Apply(b)
				} else {
					err = d.Put([]byte(keys[0]), vals[0])
				}
				if err != nil {
					t.Errorf("writer %d op %d failed under FaultNone rules: %v", w, i, err)
					return
				}
				if crashed.Load() {
					// Ack raced the snapshot: durability is ambiguous, but
					// batch atomicity is not.
					lg.inFlight = keys
					lg.wasBatch = isBatch
					return
				}
				for j := range keys {
					lg.acked[keys[j]] = vals[j]
				}
			}
		}(w, logs[w])
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if crash == nil {
		// Countdown never fired (tiny run): crash at end; everything acked.
		crash = mem.CrashClone()
	}
	// Abandon d without Close: that IS the crash (DisableAutoMaintenance,
	// so no background goroutines hold the wreckage).

	d2, err := Open("db", testOptions(crash, &base.LogicalClock{}))
	if err != nil {
		t.Fatalf("recovery open failed: %v", err)
	}
	got := map[string]string{}
	it, err := d2.NewIter(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for ok := it.First(); ok; ok = it.Next() {
		got[string(it.Key())] = string(it.Value())
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	ackedTotal := 0
	for w, lg := range logs {
		ackedTotal += len(lg.acked)
		for k, v := range lg.acked {
			gv, ok := got[k]
			if !ok {
				t.Fatalf("writer %d: acked key %q lost across crash recovery", w, k)
			}
			if gv != string(v) {
				t.Fatalf("writer %d: acked key %q recovered with wrong value", w, k)
			}
		}
		if lg.wasBatch && len(lg.inFlight) > 0 {
			present := 0
			for _, k := range lg.inFlight {
				if _, ok := got[k]; ok {
					present++
				}
			}
			if present != 0 && present != len(lg.inFlight) {
				t.Fatalf("writer %d: in-flight batch recovered partially (%d of %d keys)",
					w, present, len(lg.inFlight))
			}
		}
	}
	// Nothing unissued may resurface.
	issued := map[string]bool{}
	for _, lg := range logs {
		for k := range lg.acked {
			issued[k] = true
		}
		for _, k := range lg.inFlight {
			issued[k] = true
		}
	}
	for k := range got {
		if !issued[k] {
			t.Fatalf("recovered key %q was never issued", k)
		}
	}
	t.Logf("seed=%d: %d acked ops verified durable, %d keys recovered", seed, ackedTotal, len(got))

	if err := d2.VerifyChecksums(); err != nil {
		t.Fatalf("scrub after recovery: %v", err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSequentialPutsSampleOwnLatency is the regression test for a lone
// writer's Put latency: group-commit sampling used to draw from the per-op
// counter, so with one writer the two draws alternated odd/even and the WAL
// stage took every sample — PutLatency stayed empty and no put was traced.
// Both must sample one in opSampleInterval of their own stream.
func TestSequentialPutsSampleOwnLatency(t *testing.T) {
	const puts = 4096
	var putEnds, groupBegins int
	opts := testOptions(vfs.NewMemFS(), &base.LogicalClock{})
	opts.MemTableBytes = 4 << 20 // no rotation: the put stream is all there is
	opts.EventListener = func(e event.Event) {
		switch {
		case e.Type == event.OpEnd && e.Op == opPut:
			putEnds++
		case e.Type == event.GroupCommitBegin:
			groupBegins++
		}
	}
	d := mustOpen(t, opts)
	for i := 0; i < puts; i++ {
		if err := d.Put([]byte(fmt.Sprintf("key%06d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	const want = puts / opSampleInterval
	near := func(n int) bool { return n >= want-1 && n <= want+1 }
	st := d.Stats()
	if n := int(st.PutLatency.Count()); !near(n) {
		t.Errorf("PutLatency has %d samples after %d sequential Puts, want %d±1", n, puts, want)
	}
	if st.PutLatency.Quantile(0.99) <= 0 {
		t.Errorf("PutLatency p99 = %d, want > 0", st.PutLatency.Quantile(0.99))
	}
	if !near(putEnds) {
		t.Errorf("%d put trace events, want %d±1", putEnds, want)
	}
	if n := st.WALGroupSize.Count(); n != puts {
		t.Fatalf("%d commit groups, want %d (one per sequential Put)", n, puts)
	}
	if !near(groupBegins) {
		t.Errorf("%d group-commit trace events for %d groups, want %d±1", groupBegins, puts, want)
	}
}

// TestPutAllocs: a lone writer's Put allocates nothing, and a Delete only
// its tombstone value. The commit record is recycled, and the leader applies
// the commit itself, so neither pays for a commit group or a memtable
// writer count.
func TestPutAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	opts := testOptions(vfs.NewMemFS(), &base.LogicalClock{})
	opts.MemTableBytes = 64 << 20
	d := mustOpen(t, opts)
	key, val := []byte("key00000"), storetest.Value(1, 1)
	if a := testing.AllocsPerRun(1000, func() {
		if err := d.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}); a > 0 {
		t.Errorf("Put allocates %.2f times, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		if err := d.Delete(key); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("Delete allocates %.2f times, want <= 1", a)
	}
}
