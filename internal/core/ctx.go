package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/base"
	"repro/internal/event"
)

// This file is the overload-resilience surface: the context-aware public
// API (PutCtx, DeleteCtx, DeleteSecondaryRangeCtx, ApplyCtx, GetCtx), the
// admission-gate glue, and the deadline-aware wait helpers the stall path
// and the maintenance barriers share.
//
// Gate ordering on the write path is: admission -> stall -> commit queue.
// Admission runs first, before any engine lock, so a shed or rejected write
// costs microseconds; the stall gate and commit queue then honor the same
// context while the writer is parked. The admission controller's mutex is a
// leaf — Admit never calls back into the engine while holding it (the
// pressure feed runs outside it and takes no engine locks) — so it sits
// above the pipeline locks in the declared DAG:
//
// acheron:locks order admission.Controller.mu < core.commitPipeline.commitMu
// acheron:locks order admission.Controller.mu < core.DB.mu

// ErrOverloaded re-exports the admission sentinel: the operation was
// rejected or shed by admission control. Match with errors.Is; rejections
// driven by a context deadline also match context.DeadlineExceeded.
var ErrOverloaded = admission.ErrOverloaded

// PutCtx is Put honoring ctx: its deadline/cancel applies to admission,
// the write-stall wait, and the time parked in the group-commit queue.
// Cancellation is best-effort once a commit leader claims the write: a nil
// error always means applied, but a ctx error after claiming does not occur
// — the write completes normally instead.
func (d *DB) PutCtx(ctx context.Context, key, value []byte) error {
	return d.apply(ctx, opPut, base.KindSet, key, value)
}

// DeleteCtx is Delete honoring ctx; see PutCtx for the cancellation
// contract.
func (d *DB) DeleteCtx(ctx context.Context, key []byte) error {
	value := base.EncodeTombstoneValue(d.opts.Clock.Now())
	if err := d.apply(ctx, opDelete, base.KindDelete, key, value); err != nil {
		return err
	}
	d.stats.DeletesIssued.Add(1)
	d.stats.LiveTombstones.Add(1)
	return nil
}

// DeleteSecondaryRangeCtx is DeleteSecondaryRange honoring ctx; see PutCtx
// for the cancellation contract.
func (d *DB) DeleteSecondaryRangeCtx(ctx context.Context, lo, hi base.DeleteKey) error {
	start := time.Now()
	err := d.commitRangeDelete(ctx, lo, hi)
	dur := time.Since(start)
	d.stats.PutLatency.Record(dur.Nanoseconds())
	d.traceOp(opRangeDelete, start, dur, err)
	return err
}

// ApplyCtx is Apply honoring ctx. The batch stays atomic under
// cancellation: either the whole batch publishes or none of it does —
// a batch cancelled in the commit queue or failed in the stall gate never
// allocates sequence numbers.
func (d *DB) ApplyCtx(ctx context.Context, b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	start := time.Now()
	err := d.commitBatch(ctx, b)
	dur := time.Since(start)
	d.stats.BatchLatency.Record(dur.Nanoseconds())
	d.traceOp(opBatch, start, dur, err)
	return err
}

// GetCtx is Get honoring ctx in the read-class admission gate. Reads are
// never pressure-shed; with no ReadRate configured GetCtx only pays a
// cancellation check.
func (d *DB) GetCtx(ctx context.Context, key []byte) ([]byte, error) {
	return d.GetAtCtx(ctx, key, nil)
}

// GetAtCtx is GetAt honoring ctx; see GetCtx. It is the shared lookup
// entry: the read-class admission gate (reads are rate-limited but never
// pressure-shed: serving them does not deepen a maintenance backlog, and
// they must keep working while writes fail fast), then the
// sampled-instrumentation wrapper around getAt.
func (d *DB) GetAtCtx(ctx context.Context, key []byte, snap *Snapshot) ([]byte, error) {
	if err := d.admitRead(ctx); err != nil {
		return nil, err
	}
	if !d.opSampled() {
		return d.getAt(key, snap)
	}
	start := time.Now()
	v, err := d.getAt(key, snap)
	dur := time.Since(start)
	d.stats.GetLatency.Record(dur.Nanoseconds())
	evErr := err
	if errors.Is(evErr, ErrNotFound) {
		evErr = nil // a miss is a normal outcome, not an op failure
	}
	d.traceOp(opGet, start, dur, evErr)
	return v, err
}

// Admission returns the live admission controller, or nil when
// Options.Admission is disabled. Callers may read its per-class counters;
// closing it is the engine's job.
func (d *DB) Admission() *admission.Controller { return d.admit }

// admitWrite gates a write-path operation.
func (d *DB) admitWrite(ctx context.Context) error {
	return d.admitClass(ctx, admission.ClassWrite)
}

// admitRead gates a read-path operation.
func (d *DB) admitRead(ctx context.Context) error {
	return d.admitClass(ctx, admission.ClassRead)
}

func (d *DB) admitClass(ctx context.Context, cl admission.Class) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("acheron: %s not admitted: %w", cl, err)
	}
	if d.admit == nil {
		return nil
	}
	err := d.admit.Admit(ctx, cl)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, admission.ErrClosed):
		return ErrClosed
	}
	// Rejections are the high-volume path at overload; sample the trace
	// like the other hot-path events.
	if d.opSampled() {
		d.trace.Emit(event.Event{Type: event.AdmissionReject, Op: cl.String(), Err: err.Error()})
	}
	return err
}

// writePressure reports how close the engine is to a write stall: the max
// of the imm-memtable and L0-run backlogs relative to their stall limits
// (0 idle, >= 1 the stall condition holds). It is the default Pressure feed
// for the admission soft gate and is lock-free w.r.t. the engine — the
// flush queue depth is an atomic gauge and Current takes only the version
// set's internal read lock — so the gate never touches d.mu.
func (d *DB) writePressure() float64 {
	var p float64
	if m := d.opts.tuning.maxImm; m > 0 {
		p = float64(d.stats.FlushQueueDepth.Get()) / float64(m)
	}
	if m := d.opts.tuning.l0StallRuns; m > 0 {
		if q := float64(len(d.vs.Current().Levels[0])) / float64(m); q > p {
			p = q
		}
	}
	return p
}

// armCtxWake schedules wake to run (in its own goroutine) when ctx fires
// and returns the stop function, or nil when ctx can never fire. wake must
// re-assert the condition the caller waits on while holding the condition's
// mutex — the wakeStalledWriters discipline — so a context firing between a
// predicate check and the Wait is never lost: the wake goroutine blocks on
// the mutex until the waiter parks, then its broadcast lands.
func armCtxWake(ctx context.Context, wake func()) func() bool {
	if ctx.Done() == nil {
		return nil
	}
	return context.AfterFunc(ctx, wake)
}

// condWaitCtx waits on cond until pred holds or ctx fires, re-checking pred
// after every wakeup. Cond's mutex must be held on entry and is held on
// return. wake must broadcast cond under its mutex (see armCtxWake).
// Returns nil when pred holds, the bare ctx error on expiry — callers wrap
// it with operation context.
func condWaitCtx(ctx context.Context, cond *sync.Cond, wake func(), pred func() bool) error {
	if pred() {
		return nil
	}
	stop := armCtxWake(ctx, wake)
	if stop != nil {
		defer stop()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		cond.Wait()
		if pred() {
			return nil
		}
	}
}
