package admission

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic token math.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestNilControllerAdmitsEverything(t *testing.T) {
	var c *Controller
	if err := c.Admit(context.Background(), ClassWrite); err != nil {
		t.Fatalf("nil controller Admit: %v", err)
	}
	c.Close() // must not panic
}

func TestUnlimitedClassPassesThrough(t *testing.T) {
	// Only writes are limited; reads must pass without touching a bucket.
	c := NewController(Config{WriteRate: 1, WriteBurst: 1})
	for i := 0; i < 100; i++ {
		if err := c.Admit(context.Background(), ClassRead); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if got := c.ClassMetrics(ClassRead).Admitted.Get(); got != 100 {
		t.Fatalf("read admitted = %d, want 100", got)
	}
}

func TestBurstThenRefill(t *testing.T) {
	clk := newFakeClock()
	// MaxWait of 1ns turns Admit into a probe: an empty bucket is rejected
	// at once instead of queued for.
	c := NewController(Config{WriteRate: 100, WriteBurst: 5, MaxWait: time.Nanosecond, now: clk.Now})
	admitted := func() bool { return c.Admit(context.Background(), ClassWrite) == nil }
	for i := 0; i < 5; i++ {
		if !admitted() {
			t.Fatalf("burst op %d rejected", i)
		}
	}
	if admitted() {
		t.Fatal("bucket should be empty after burst")
	}
	// 100 tokens/s -> 30ms refills 3 tokens.
	clk.Advance(30 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if !admitted() {
			t.Fatalf("refilled token %d not available", i)
		}
	}
	if admitted() {
		t.Fatal("fourth token should not have refilled")
	}
	// A long idle period must cap at the burst, not accumulate.
	clk.Advance(time.Hour)
	for i := 0; i < 5; i++ {
		if !admitted() {
			t.Fatalf("post-idle token %d not available", i)
		}
	}
	if admitted() {
		t.Fatal("burst cap exceeded after idle")
	}
}

func TestDeadlineFailFast(t *testing.T) {
	// Rate 1/s with an empty bucket: the projected wait is ~1s, so a 20ms
	// deadline must be rejected immediately rather than slept through.
	c := NewController(Config{WriteRate: 1, WriteBurst: 1})
	if err := c.Admit(context.Background(), ClassWrite); err != nil {
		t.Fatalf("draining token: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Admit(ctx, ClassWrite)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("fail-fast took %v; should not burn the deadline", elapsed)
	}
	if got := c.ClassMetrics(ClassWrite).Rejected.Get(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

func TestMaxWaitRejects(t *testing.T) {
	c := NewController(Config{WriteRate: 1, WriteBurst: 1, MaxWait: 10 * time.Millisecond})
	if err := c.Admit(context.Background(), ClassWrite); err != nil {
		t.Fatalf("draining token: %v", err)
	}
	start := time.Now()
	err := c.Admit(context.Background(), ClassWrite)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; MaxWait rejection must not claim a context deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("MaxWait rejection took %v", elapsed)
	}
}

func TestPressureHardShed(t *testing.T) {
	var pressure atomic.Value
	pressure.Store(1.5)
	c := NewController(Config{
		WriteRate: 1000, WriteBurst: 100,
		Pressure: func() float64 { return pressure.Load().(float64) },
	})
	err := c.Admit(context.Background(), ClassWrite)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded at pressure >= 1", err)
	}
	// Reads are never pressure-gated.
	if err := c.Admit(context.Background(), ClassRead); err != nil {
		t.Fatalf("read under pressure: %v", err)
	}
	pressure.Store(0.0)
	if err := c.Admit(context.Background(), ClassWrite); err != nil {
		t.Fatalf("write after pressure cleared: %v", err)
	}
	if got := c.ClassMetrics(ClassWrite).Shed.Get(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
}

func TestPressureSoftGate(t *testing.T) {
	var pressure atomic.Value
	pressure.Store(0.9) // above the 0.75 default soft threshold
	c := NewController(Config{
		WriteRate: 1000, WriteBurst: 2,
		Pressure: func() float64 { return pressure.Load().(float64) },
	})
	ctx := context.Background()
	// Tokens available: the soft band still admits.
	if err := c.Admit(ctx, ClassWrite); err != nil {
		t.Fatalf("soft band with token: %v", err)
	}
	if err := c.Admit(ctx, ClassWrite); err != nil {
		t.Fatalf("soft band with token: %v", err)
	}
	// Bucket empty: the soft band sheds instead of queueing.
	err := c.Admit(ctx, ClassWrite)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want shed under soft gate", err)
	}
	if got := c.ClassMetrics(ClassWrite).Shed.Get(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	c := NewController(Config{WriteRate: 1, WriteBurst: 1, MaxWait: 10 * time.Second})
	if err := c.Admit(context.Background(), ClassWrite); err != nil {
		t.Fatalf("draining token: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- c.Admit(ctx, ClassWrite) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled admission did not return")
	}
}

func TestCloseReleasesWaiters(t *testing.T) {
	c := NewController(Config{WriteRate: 1, WriteBurst: 1, MaxWait: 10 * time.Second})
	if err := c.Admit(context.Background(), ClassWrite); err != nil {
		t.Fatalf("draining token: %v", err)
	}
	const waiters = 4
	errCh := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() { errCh <- c.Admit(context.Background(), ClassWrite) }()
	}
	time.Sleep(20 * time.Millisecond)
	c.Close()
	c.Close() // idempotent
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("waiter err = %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Close did not release queued admissions")
		}
	}
	if err := c.Admit(context.Background(), ClassWrite); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Admit = %v, want ErrClosed", err)
	}
}

// TestAdmissionConcurrentStress hammers one controller from many goroutines
// with mixed deadlines and checks the counters reconcile: every call is
// accounted exactly once. Run under -race by `make race`.
func TestAdmissionConcurrentStress(t *testing.T) {
	var pressure atomic.Value
	pressure.Store(0.0)
	c := NewController(Config{
		WriteRate: 50_000, WriteBurst: 500,
		ReadRate: 50_000, ReadBurst: 500,
		MaxWait:  2 * time.Millisecond,
		Pressure: func() float64 { return pressure.Load().(float64) },
	})
	const (
		workers = 8
		perW    = 500
	)
	var total atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				cl := ClassWrite
				if rng.Intn(4) == 0 {
					cl = ClassRead
				}
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch rng.Intn(3) {
				case 0:
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
				case 1:
					ctx, cancel = context.WithCancel(ctx)
					if rng.Intn(2) == 0 {
						cancel()
					}
				}
				if w == 0 && i%100 == 0 {
					pressure.Store(rng.Float64() * 1.2)
				}
				err := c.Admit(ctx, cl)
				cancel()
				if err != nil && !errors.Is(err, ErrOverloaded) &&
					!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Errorf("unexpected admission error: %v", err)
					return
				}
				total.Add(1)
			}
		}(w)
	}
	wg.Wait()
	var accounted int64
	for _, cl := range []Class{ClassRead, ClassWrite} {
		m := c.ClassMetrics(cl)
		accounted += m.Admitted.Get() + m.Rejected.Get() + m.Shed.Get()
	}
	if accounted != total.Load() {
		t.Fatalf("accounted %d admissions, issued %d", accounted, total.Load())
	}
}

// admitGates are the two gates on Admit's hot path: one with no limit, and
// one rate-limited whose bucket never runs dry (a burst of 1e11 tokens).
var admitGates = []struct {
	name string
	cfg  Config
}{
	{"unlimited", Config{}},
	{"rate-limited", Config{WriteRate: 1e12}},
}

// BenchmarkAdmit prices an admission that succeeds at once.
func BenchmarkAdmit(b *testing.B) {
	for _, g := range admitGates {
		b.Run(g.name, func(b *testing.B) {
			c := NewController(g.cfg)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Admit(ctx, ClassWrite); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestImmediateAdmitReadsClockOnce: a rate-limited admission that gets a
// token at once reads the clock once, to refill the bucket; the queue-time
// reference is taken only when an attempt fails.
func TestImmediateAdmitReadsClockOnce(t *testing.T) {
	var reads atomic.Int64
	clk := newFakeClock()
	c := NewController(Config{WriteRate: 100, WriteBurst: 5, now: func() time.Time {
		reads.Add(1)
		return clk.Now()
	}})
	reads.Store(0)
	if err := c.Admit(context.Background(), ClassWrite); err != nil {
		t.Fatal(err)
	}
	if n := reads.Load(); n != 1 {
		t.Fatalf("immediate admission read the clock %d times, want 1", n)
	}
}

// TestAdmitAllocs: an admission that succeeds at once allocates nothing,
// limited or not (BenchmarkAdmit's recorded allocs/op).
func TestAdmitAllocs(t *testing.T) {
	for _, g := range admitGates {
		c := NewController(g.cfg)
		ctx := context.Background()
		if a := testing.AllocsPerRun(1000, func() {
			if err := c.Admit(ctx, ClassWrite); err != nil {
				t.Fatal(err)
			}
		}); a > 0 {
			t.Fatalf("%s: Admit makes %.1f allocations, want 0", g.name, a)
		}
	}
}
