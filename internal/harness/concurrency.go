package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// C1MaintenanceConcurrency measures the concurrent maintenance scheduler:
// the same delete-heavy FADE workload is run with an executor pool of 1
// (flush, eager work and compactions serialized) and of 4 (a flush executor
// beside three compaction executors). Unlike
// E1..E8 (logical clock, manually driven maintenance), this experiment runs
// the real background executors against the wall clock, so the numbers vary
// run to run; the point is the shape — with concurrency, TTL-triggered
// (DPT-critical) jobs stop queueing behind saturation merges, which shows up
// as overlapped TTL jobs and a lower TTL job latency tail.
func C1MaintenanceConcurrency(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "C1",
		Title:  "maintenance concurrency: pool of 1 vs executor pool (wall clock)",
		Header: []string{"conc", "flushes", "compact[l0/sat/ttl]", "ttl_overlapped", "p99_ttl_ms", "p99_flush_ms", "stalls", "peak_flush_q"},
		Notes: []string{
			"ttl_overlapped counts TTL compactions whose run window intersected another in-flight compaction",
			"wall-clock experiment: absolute numbers vary run to run",
		},
	}
	for _, conc := range []int{1, 4} {
		opts := core.Options{
			FS:                      vfs.NewMemFS(),
			MemTableBytes:           sc.MemTableBytes / 2,
			BloomBitsPerKey:         10,
			DeleteKeyFunc:           workload.ExtractDeleteKey,
			MaintenanceConcurrency:  conc,
			MaintenanceTickInterval: 2 * time.Millisecond,
			Compaction: compaction.Options{
				Policy:          compaction.PolicyLeveled,
				Picker:          compaction.PickFADE,
				SizeRatio:       sc.SizeRatio,
				BaseLevelBytes:  sc.BaseLevelBytes,
				TargetFileBytes: sc.TargetFileBytes,
				DPT:             base.Duration(10 * time.Millisecond),
			},
		}
		db, err := core.Open("bench-db", opts)
		if err != nil {
			return nil, err
		}
		g := workload.New(workload.Spec{
			Seed:     99,
			KeySpace: sc.KeySpace,
			ValueLen: sc.ValueLen,
			Dist:     workload.Uniform,
			Mix:      workload.Mix{Updates: 0.4, Deletes: 0.25},
		})
		for i := 0; i < sc.Ops; i++ {
			op := g.Next()
			switch op.Kind {
			case workload.OpDelete:
				err = db.Delete(op.Key)
			default:
				err = db.Put(op.Key, op.Value)
			}
			if err != nil {
				db.Close()
				return nil, fmt.Errorf("c1 op %d: %w", i, err)
			}
		}
		if err := db.Flush(); err != nil {
			db.Close()
			return nil, err
		}
		if err := db.WaitIdle(); err != nil {
			db.Close()
			return nil, err
		}

		jobs := db.RecentMaintJobs()
		overlapped := 0
		for _, tj := range jobs {
			if tj.Kind != core.JobCompact || tj.Trigger != compaction.TriggerTTL {
				continue
			}
			for _, oj := range jobs {
				if oj.Kind == core.JobCompact && oj.ID != tj.ID &&
					tj.Started.Before(oj.Finished) && oj.Started.Before(tj.Finished) {
					overlapped++
					break
				}
			}
		}
		st := db.Stats()
		ms := func(ns int64) string { return Fx(float64(ns)/1e6, 2) }
		t.AddRow(I(int64(conc)), I(st.Flushes.Get()),
			fmt.Sprintf("%d/%d/%d", st.CompactionsByTrigger[0].Get(), st.CompactionsByTrigger[1].Get(), st.CompactionsByTrigger[2].Get()),
			I(int64(overlapped)),
			ms(st.JobLatencyByTrigger[int(compaction.TriggerTTL)].Quantile(0.99)),
			ms(st.FlushLatency.Quantile(0.99)),
			I(st.WriteStalls.Get()), I(st.FlushQueueDepth.Peak()))
		if err := db.Close(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// fsyncDelayFS charges a fixed latency per file Sync on top of MemFS.
// MemFS syncs are nearly free, which would hide exactly the cost the
// group-commit pipeline amortizes; the yielding wait models a fast NVMe
// fsync (time.Sleep overshoots sub-millisecond durations badly, and a pure
// busy-wait would starve the enqueueing writers on single-core runners).
type fsyncDelayFS struct {
	vfs.FS
	delay time.Duration
}

func (fs fsyncDelayFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return fsyncDelayFile{f, fs.delay}, nil
}

type fsyncDelayFile struct {
	vfs.File
	delay time.Duration
}

func (f fsyncDelayFile) Sync() error {
	for start := time.Now(); time.Since(start) < f.delay; {
		runtime.Gosched()
	}
	return f.File.Sync()
}

// C2CommitPipeline measures the group-commit write pipeline: the same
// put-only workload is pushed by 1..16 concurrent writers with SyncWrites
// enabled, against a filesystem that charges 20µs per fsync. Concurrent
// writers that arrive while a sync is in flight share the next one, so
// throughput should scale well past the 1/fsync-latency ceiling a
// serialized sync-per-commit path is pinned to, and commits_per_sync
// (WAL appends per fsync) reports the amortization factor directly.
// Wall-clock experiment: absolute numbers vary run to run.
func C2CommitPipeline(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "C2",
		Title:  "commit pipeline: concurrent writers, batched WAL fsync (wall clock, 20µs/fsync)",
		Header: []string{"writers", "kops_s", "wal_appends", "wal_syncs", "commits_per_sync", "p99_group", "p99_sync_us", "p99_put_us", "stalls"},
		Notes: []string{
			"commits_per_sync = WAL appends / WAL fsyncs: the group-commit amortization factor",
			"wall-clock experiment: absolute numbers vary run to run",
		},
	}
	for _, writers := range []int{1, 4, 8, 16} {
		mem := vfs.NewMemFS()
		opts := core.Options{
			FS:                      fsyncDelayFS{mem, 20 * time.Microsecond},
			MemTableBytes:           sc.MemTableBytes,
			BloomBitsPerKey:         10,
			DeleteKeyFunc:           workload.ExtractDeleteKey,
			SyncWrites:              true,
			MaintenanceTickInterval: 2 * time.Millisecond,
			Compaction: compaction.Options{
				Policy:          compaction.PolicyLeveled,
				Picker:          compaction.PickMinOverlap,
				SizeRatio:       sc.SizeRatio,
				BaseLevelBytes:  sc.BaseLevelBytes,
				TargetFileBytes: sc.TargetFileBytes,
			},
		}
		db, err := core.Open("bench-db", opts)
		if err != nil {
			return nil, err
		}
		perWriter := sc.Ops / writers
		errs := make(chan error, writers)
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				g := workload.New(workload.Spec{
					Seed:     uint64(1000 + w),
					KeySpace: sc.KeySpace,
					ValueLen: sc.ValueLen,
					Dist:     workload.Uniform,
					Mix:      workload.Mix{Updates: 0.5},
				})
				for i := 0; i < perWriter; i++ {
					op := g.Next()
					var err error
					if op.Kind == workload.OpDelete {
						err = db.Delete(op.Key)
					} else {
						err = db.Put(op.Key, op.Value)
					}
					if err != nil {
						errs <- fmt.Errorf("c2 writer %d op %d: %w", w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errs:
			db.Close()
			return nil, err
		default:
		}
		if err := db.WaitIdle(); err != nil {
			db.Close()
			return nil, err
		}

		st := db.Stats()
		us := func(ns int64) string { return Fx(float64(ns)/1e3, 1) }
		t.AddRow(I(int64(writers)),
			Fx(float64(writers*perWriter)/elapsed.Seconds()/1e3, 1),
			I(st.WALAppends.Get()), I(st.WALSyncs.Get()),
			Fx(st.CommitsPerSync(), 2),
			I(st.WALGroupSize.Quantile(0.99)),
			us(st.WALSyncLatency.Quantile(0.99)),
			us(st.PutLatency.Quantile(0.99)),
			I(st.WriteStalls.Get()))

		// Close through a Runtime so the metrics sink sees this engine's
		// final counters like every other experiment's.
		rt := &Runtime{Config: EngineConfig{Name: fmt.Sprintf("commit-w%d", writers)}, Scale: sc, DB: db, FS: mem}
		if err := rt.Close(); err != nil {
			return nil, err
		}
	}
	return t, nil
}
