// Package admission implements token-bucket admission control for the
// engine's foreground paths. A Controller holds one bucket per operation
// class (reads and writes are limited independently) and, for writes, a
// pressure-adaptive soft gate: fed a live engine-pressure signal (how close
// the flush/compaction backlog is to the write-stall limits), it sheds load
// with ErrOverloaded *before* the engine stalls, so rejected work fails in
// microseconds instead of queueing behind maintenance it can only make
// worse.
//
// Admit is deadline-aware and fails fast: when the caller's context
// deadline provably cannot be met by the projected token wait, it rejects
// immediately with an error wrapping both ErrOverloaded and
// context.DeadlineExceeded rather than burning the deadline parked on a
// timer. That property is what keeps goodput flat as offered load climbs
// past the admitted rate (the C6 experiment): excess operations cost almost
// nothing.
package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
)

// softGatePressure is the pressure threshold of the write soft gate: above
// it an empty bucket sheds instead of queueing, and at pressure >= 1.0 (the
// stall condition itself) writes shed unconditionally.
const softGatePressure = 0.75

// ErrOverloaded is returned when admission control rejects an operation:
// the engine-pressure soft gate shed it, its token wait would exceed the
// caller's deadline, or the wait would exceed Config.MaxWait. Rejections
// are fast by design — the caller should back off or surface the overload.
var ErrOverloaded = errors.New("acheron: overloaded")

// ErrClosed is returned by Admit after Close: the store is shutting down
// and queued admissions are released immediately.
var ErrClosed = errors.New("admission: controller closed")

// Class selects which token bucket an operation draws from.
type Class int

const (
	// ClassRead covers point lookups and iterator opens.
	ClassRead Class = iota
	// ClassWrite covers puts, deletes, batches, and range deletes. Only
	// writes are subject to the pressure soft gate: shedding reads would
	// not relieve a maintenance backlog.
	ClassWrite

	numClasses
)

// String returns the class label used in metrics and trace events.
func (c Class) String() string {
	if c == ClassWrite {
		return "write"
	}
	return "read"
}

// Config parameterizes a Controller.
type Config struct {
	// WriteRate is the sustained admitted write rate in operations per
	// second; <= 0 leaves writes unlimited. WriteBurst is the bucket depth
	// (momentary burst allowance); <= 0 defaults to 100ms worth of rate,
	// minimum 1.
	WriteRate  float64
	WriteBurst int
	// ReadRate / ReadBurst are the same knobs for the read class.
	ReadRate  float64
	ReadBurst int

	// MaxWait bounds how long an admission without a (tighter) context
	// deadline may queue for a token before rejecting with ErrOverloaded.
	// <= 0 selects the default, 500ms.
	MaxWait time.Duration

	// Pressure reports live engine pressure in [0, ∞): 0 idle, 1.0 at the
	// write-stall threshold. Nil disables the soft gate. It is called
	// outside the controller's mutex and must be cheap and lock-light.
	Pressure func() float64

	// now is the clock, time.Now unless this package's tests set it.
	now func() time.Time
}

// Enabled reports whether the configuration asks for any admission control
// at all. A zero Config builds no controller and costs nothing.
func (c Config) Enabled() bool { return c.WriteRate > 0 || c.ReadRate > 0 }

// ClassMetrics are one class's admission counters, exported as fields so
// the engine can register them in its metrics registry directly.
type ClassMetrics struct {
	// Admitted counts operations that passed the gate.
	Admitted metrics.Counter
	// Rejected counts operations rejected because their token wait would
	// exceed the context deadline or MaxWait, or because the context was
	// cancelled while queued.
	Rejected metrics.Counter
	// Shed counts writes dropped by the pressure soft gate.
	Shed metrics.Counter
	// Wait records nanoseconds spent queued before a successful admission
	// (instant admissions are not recorded).
	Wait metrics.Histogram
}

// bucket is one class's token bucket. Tokens are fractional so low rates
// accumulate smoothly.
type bucket struct {
	rate   float64 // tokens per second; <= 0 disables the bucket
	burst  float64
	tokens float64
	last   time.Time
}

// refill credits tokens for the time elapsed since the last refill.
func (b *bucket) refill(now time.Time) {
	if elapsed := now.Sub(b.last); elapsed > 0 {
		b.tokens += elapsed.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// Controller is a concurrency-safe admission gate. The zero value is not
// usable; construct with NewController. A nil *Controller admits
// everything, so call sites need no guards.
type Controller struct {
	cfg Config

	closeOnce sync.Once
	closed    chan struct{}

	// mu guards the buckets. It is a leaf lock: nothing else is ever
	// acquired under it (the pressure callback runs outside it), and the
	// engine acquires it before any commit-path lock, never inside one.
	mu      sync.Mutex
	buckets [numClasses]bucket

	stats [numClasses]ClassMetrics
}

// NewController builds a controller from cfg, applying defaults.
func NewController(cfg Config) *Controller {
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 500 * time.Millisecond
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	c := &Controller{cfg: cfg, closed: make(chan struct{})}
	now := cfg.now()
	c.buckets[ClassRead] = newBucket(cfg.ReadRate, cfg.ReadBurst, now)
	c.buckets[ClassWrite] = newBucket(cfg.WriteRate, cfg.WriteBurst, now)
	return c
}

func newBucket(rate float64, burst int, now time.Time) bucket {
	if rate <= 0 {
		return bucket{}
	}
	if burst <= 0 {
		burst = int(rate / 10) // 100ms of sustained rate
		if burst < 1 {
			burst = 1
		}
	}
	return bucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: now}
}

// Close releases every queued admission with ErrClosed and makes future
// Admit calls fail the same way. Idempotent; never blocks.
func (c *Controller) Close() {
	if c == nil {
		return
	}
	c.closeOnce.Do(func() { close(c.closed) })
}

// ClassMetrics returns the live counters for one class. The pointer stays
// valid for the controller's lifetime.
func (c *Controller) ClassMetrics(cl Class) *ClassMetrics { return &c.stats[cl] }

// pressureGated reports whether cl is subject to the pressure soft gate.
func (c *Controller) pressureGated(cl Class) bool {
	return cl == ClassWrite && c.cfg.Pressure != nil
}

// Admit blocks until a token for cl is available, the context fires, or
// the projected wait proves the admission cannot succeed in time. It
// returns nil on admission; ErrOverloaded (possibly also wrapping
// context.DeadlineExceeded) on rejection or shed; the wrapped context
// error when cancelled while queued; ErrClosed after Close. All sentinel
// matching must go through errors.Is.
func (c *Controller) Admit(ctx context.Context, cl Class) error {
	if c == nil {
		return nil
	}
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	m := &c.stats[cl]
	limited := c.buckets[cl].rate > 0
	if !limited && !c.pressureGated(cl) {
		m.Admitted.Add(1)
		return nil
	}
	// start is the first failed attempt's clock reading: an admission that
	// gets a token at once reads the clock only in take.
	var start time.Time
	deadline, hasDeadline := ctx.Deadline()
	for waited := false; ; waited = true {
		// The pressure gate is re-read every attempt so a backlog that
		// clears while a writer queues lets it through.
		pressured := false
		if c.pressureGated(cl) {
			p := c.cfg.Pressure()
			if p >= 1 {
				m.Shed.Add(1)
				return fmt.Errorf("%w: engine pressure %.2f at stall threshold, write shed", ErrOverloaded, p)
			}
			pressured = p >= softGatePressure
		}
		if !limited {
			m.Admitted.Add(1)
			return nil
		}
		ok, wait := c.take(cl)
		if ok {
			m.Admitted.Add(1)
			if waited {
				m.Wait.Record(int64(c.cfg.now().Sub(start)))
			}
			return nil
		}
		if pressured {
			// Soft band: an empty bucket under elevated pressure sheds
			// instead of queueing — queued writers would only pile onto a
			// backlog maintenance is already losing to.
			m.Shed.Add(1)
			return fmt.Errorf("%w: admission bucket empty under pressure, write shed", ErrOverloaded)
		}
		now := c.cfg.now()
		if !waited {
			start = now
		}
		if hasDeadline && now.Add(wait).After(deadline) {
			// Fail fast: the token provably cannot arrive in time. Wrap
			// both sentinels so callers can match either the overload or
			// the deadline.
			m.Rejected.Add(1)
			return fmt.Errorf("%w: projected token wait %v exceeds deadline: %w",
				ErrOverloaded, wait.Round(time.Microsecond), context.DeadlineExceeded)
		}
		if now.Sub(start)+wait > c.cfg.MaxWait {
			m.Rejected.Add(1)
			return fmt.Errorf("%w: token wait exceeds max queue time %v", ErrOverloaded, c.cfg.MaxWait)
		}
		if err := c.sleep(ctx, wait); err != nil {
			m.Rejected.Add(1)
			return err
		}
	}
}

// take refills cl's bucket and attempts to draw one token, returning
// success or the projected wait until a token will be available. The
// projection is optimistic under contention (another waiter may draw
// first); callers loop.
func (c *Controller) take(cl Class) (bool, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := &c.buckets[cl]
	b.refill(c.cfg.now())
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// sleep parks for d, interruptible by the context or Close.
func (c *Controller) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w while queued for admission", ctx.Err())
	case <-c.closed:
		return ErrClosed
	}
}
