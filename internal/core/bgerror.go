package core

import (
	"errors"
	"fmt"
	"syscall"
	"time"

	"repro/internal/event"
	"repro/internal/sstable"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// ErrBackgroundError is wrapped into every write-path rejection after a
// background job failed permanently and flipped the DB read-only. The
// original cause is in the chain: errors.Is(err, vfs.ErrNoSpace) etc. still
// work on the returned error.
var ErrBackgroundError = errors.New("acheron: background error, db is read-only")

// BackgroundError reports the sticky background error, wrapped in
// ErrBackgroundError, or nil while the DB is healthy. Once non-nil it never
// clears: recovery is reopening the DB.
func (d *DB) BackgroundError() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.backgroundErrLocked()
}

// backgroundErrLocked returns the wrapped sticky error. Caller holds d.mu.
func (d *DB) backgroundErrLocked() error {
	if d.bgErr == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrBackgroundError, d.bgErr)
}

// setBackgroundError records the first permanent background failure and
// flips the DB read-only: subsequent writes fail fast with
// ErrBackgroundError, stalled writers are released with it, and reads keep
// serving committed data. Caller must not hold d.mu.
func (d *DB) setBackgroundError(cause error) {
	d.mu.Lock()
	first := d.bgErr == nil
	if first {
		d.bgErr = cause
		d.stats.ReadOnly.Set(1)
		// Writers parked in stallWritesLocked re-evaluate under d.mu and
		// observe bgErr; holding the mutex here closes the lost-wakeup
		// window exactly as in wakeStalledWriters.
		d.stallCond.Broadcast()
	}
	d.mu.Unlock()
	if first {
		d.opts.logf("acheron: background error, entering read-only mode: %v", cause)
	}
}

// backgroundErrPermanent classifies a background job error. Out-of-space
// and data corruption are not cured by retrying; everything else is assumed
// transient (the caller bounds retries with tuning.maxRetries).
func backgroundErrPermanent(err error) bool {
	return errors.Is(err, vfs.ErrNoSpace) ||
		errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, wal.ErrCorrupt) ||
		errors.Is(err, sstable.ErrCorrupt)
}

// noteJobError accounts one failed background job attempt and decides its
// fate: true means back off and retry; false means the error was escalated
// to a sticky background error (permanent class, or consecutive transient
// failures exhausted tuning.maxRetries) and the executor should stop.
func (d *DB) noteJobError(kind string, consecutive int, err error) bool {
	d.stats.BackgroundErrors.Add(1)
	retriable := !backgroundErrPermanent(err)
	if n := d.opts.tuning.maxRetries; retriable && (n < 0 || consecutive <= n) {
		d.stats.JobRetries.Add(1)
		d.trace.Emit(event.Event{Type: event.JobRetry, Op: kind, Err: err.Error()})
		d.opts.logf("acheron: %s error (attempt %d, will retry): %v", kind, consecutive, err)
		return true
	}
	if retriable {
		err = fmt.Errorf("%d consecutive %s failures, last: %w", consecutive, kind, err)
	}
	d.setBackgroundError(err)
	return false
}

// backoffDelay returns the capped exponential delay before retry attempt
// consecutive (1-based): base, 2·base, 4·base, ... capped at the max.
func (d *DB) backoffDelay(consecutive int) time.Duration {
	delay, ceil := d.opts.tuning.retryBase, d.opts.tuning.retryMax
	for i := 1; i < consecutive && delay < ceil; i++ {
		delay *= 2
	}
	return min(delay, ceil)
}

// backoffWait sleeps for delay, returning false if the DB started closing
// first (the executor should exit instead of retrying).
func (d *DB) backoffWait(delay time.Duration) bool {
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-d.closeCh:
		return false
	case <-t.C:
		return true
	}
}
