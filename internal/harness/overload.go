package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// C6Overload measures overload resilience: goodput and latency as the
// offered write load climbs past the admitted rate. Each row runs an
// open-loop workload — writers pace themselves to the offered rate and
// attach a 5ms deadline to every PutCtx — against a store whose admission
// gate is configured for a fixed admitted rate. Without admission control,
// offered load past capacity collapses goodput (every writer queues in the
// stall gate and times out holding a commit slot); with the token bucket and
// the pressure soft gate, excess load is rejected in microseconds and
// goodput holds near the admitted rate at 2x and 4x offered load. A
// concurrent reader runs throughout: reads are never pressure-shed, so they
// keep serving while writes are rejected. Wall-clock experiment: absolute
// numbers vary run to run, so the acceptance it enforces is wide — it fails
// when goodput at 4x falls below three quarters of the 1x row (the token
// bucket caps both at the admitted rate) or when the reader is starved at
// any multiple.
func C6Overload(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "C6",
		Title:  "overload: goodput and latency vs offered load (token-bucket admission, wall clock)",
		Header: []string{"offered", "goodput_kops", "ok_p99_us", "rej_p50_us", "rej_p99_us", "admitted", "rejected", "shed", "stalls", "reads_ok"},
		Notes: []string{
			"offered load is a multiple of the admitted write rate; ops carry a 5ms deadline",
			"rej_p50_us prices the admission fail-fast; the rejection tail is bounded by the op deadline",
			"expected: goodput at 4x within ~10% of the 1x baseline (excess load costs almost nothing)",
			"enforced: goodput at 4x >= 0.75 x the 1x row, and reads_ok > 0 in every row",
			"wall-clock experiment: absolute numbers vary run to run",
		},
	}

	const (
		writers     = 8
		admittedOps = 20_000.0 // admitted write rate, ops/s
		opDeadline  = 5 * time.Millisecond
	)
	rowOps := sc.Ops
	if rowOps > 30_000 {
		rowOps = 30_000
	}

	var baseline float64 // goodput of the 1x row, ops/s
	for _, mult := range []int{1, 2, 4} {
		mem := vfs.NewMemFS()
		opts := core.Options{
			FS:                      mem,
			MemTableBytes:           sc.MemTableBytes,
			BloomBitsPerKey:         10,
			DeleteKeyFunc:           workload.ExtractDeleteKey,
			MaintenanceTickInterval: 2 * time.Millisecond,
			Admission: admission.Config{
				WriteRate:  admittedOps,
				WriteBurst: int(admittedOps / 100), // 10ms of burst headroom
				// Below one token interval (50us at the admitted rate), so an
				// empty bucket rejects before the first timer park: that keeps
				// rejection latency in microseconds and the open-loop writers
				// on their offered schedule. The burst depth, not the queue,
				// absorbs pacing jitter at 1x.
				MaxWait: 20 * time.Microsecond,
			},
		}
		db, err := core.Open("bench-db", opts)
		if err != nil {
			return nil, err
		}

		offered := admittedOps * float64(mult)
		perWriter := rowOps / writers
		// Open-loop pacing: writer w's i-th op is due at start + i*interval,
		// regardless of how long earlier ops took — rejected ops free their
		// slot immediately, which is exactly the capacity fail-fast protects.
		interval := time.Duration(float64(writers) / offered * float64(time.Second))

		var (
			okHist   metrics.Histogram
			rejHist  metrics.Histogram
			goodput  atomic.Int64
			readsOK  atomic.Int64
			hardErrs = make(chan error, writers+1)
			stop     = make(chan struct{})
			wg       sync.WaitGroup
		)
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				g := workload.New(workload.Spec{
					Seed:     uint64(6000 + w),
					KeySpace: sc.KeySpace,
					ValueLen: sc.ValueLen,
					Dist:     workload.Uniform,
					Mix:      workload.Mix{Updates: 0.5},
				})
				for i := 0; i < perWriter; i++ {
					if due := start.Add(time.Duration(i) * interval); time.Until(due) > 0 {
						time.Sleep(time.Until(due))
					}
					op := g.Next()
					ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
					opStart := time.Now()
					err := db.PutCtx(ctx, op.Key, op.Value)
					lat := time.Since(opStart)
					cancel()
					switch {
					case err == nil:
						goodput.Add(1)
						okHist.Record(lat.Nanoseconds())
					case errors.Is(err, core.ErrOverloaded) || errors.Is(err, context.DeadlineExceeded):
						rejHist.Record(lat.Nanoseconds())
					default:
						select {
						case hardErrs <- fmt.Errorf("c6 %dx writer %d op %d: %w", mult, w, i, err):
						default:
						}
						return
					}
				}
			}(w)
		}
		// The reader probes throughout the write storm; reads have no rate
		// configured and are never pressure-shed, so they must keep serving.
		// It runs outside the writers' WaitGroup: it stops when they finish.
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			g := workload.New(workload.Spec{
				Seed:     7000,
				KeySpace: sc.KeySpace,
				ValueLen: sc.ValueLen,
				Dist:     workload.Uniform,
			})
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := g.Next()
				ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
				_, err := db.GetCtx(ctx, op.Key)
				cancel()
				if err == nil || errors.Is(err, core.ErrNotFound) {
					readsOK.Add(1)
				} else {
					select {
					case hardErrs <- fmt.Errorf("c6 %dx reader: %w", mult, err):
					default:
					}
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()

		wg.Wait()
		elapsed := time.Since(start)
		close(stop)
		<-readerDone
		select {
		case err := <-hardErrs:
			db.Close()
			return nil, err
		default:
		}

		wm := db.Admission().ClassMetrics(admission.ClassWrite)
		st := db.Stats()
		us := func(ns int64) string { return Fx(float64(ns)/1e3, 1) }
		goodputPerSec := float64(goodput.Load()) / elapsed.Seconds()
		t.AddRow(fmt.Sprintf("%dx", mult),
			Fx(goodputPerSec/1e3, 1),
			us(okHist.Quantile(0.99)),
			us(rejHist.Quantile(0.5)),
			us(rejHist.Quantile(0.99)),
			I(wm.Admitted.Get()), I(wm.Rejected.Get()), I(wm.Shed.Get()),
			I(st.WriteStalls.Get()), I(readsOK.Load()))

		// Close through a Runtime so the metrics sink records this engine
		// like every other experiment's.
		rt := &Runtime{Config: EngineConfig{Name: fmt.Sprintf("overload-%dx", mult)}, Scale: sc, DB: db, FS: mem}
		if err := rt.Close(); err != nil {
			return nil, err
		}

		if readsOK.Load() == 0 {
			return nil, fmt.Errorf("c6 %dx: the reader served nothing beside the write storm", mult)
		}
		switch mult {
		case 1:
			baseline = goodputPerSec
		case 4:
			if goodputPerSec < 0.75*baseline {
				return nil, fmt.Errorf("c6: goodput collapsed under overload: %.0f ops/s at 4x offered load, %.0f at 1x (floor 0.75x)",
					goodputPerSec, baseline)
			}
		}
	}
	return t, nil
}
