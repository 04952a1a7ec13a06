package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/storetest"
	"repro/internal/vfs"
	"repro/internal/vfs/errorfs"
	"repro/internal/wire"
)

func testRouter(t *testing.T, shards int) *shard.Router {
	t.Helper()
	r, err := shard.Open("db", core.Options{
		FS:            vfs.NewMemFS(),
		Shards:        shards,
		MemTableBytes: 32 << 10,
		DeleteKeyFunc: storetest.DeleteKey,
		Compaction: compaction.Options{
			SizeRatio:       4,
			L0Threshold:     2,
			BaseLevelBytes:  64 << 10,
			TargetFileBytes: 16 << 10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestServerRoundTrip covers every wire op end to end through a live
// server and the real client.
func TestServerRoundTrip(t *testing.T) {
	r := testRouter(t, 2)
	defer r.Close()
	srv := New(r, Config{OpTimeout: 5 * time.Second})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Put([]byte(fmt.Sprintf("key%03d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := c.Get([]byte("key007"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != string(storetest.Value(7, 7)) {
		t.Fatal("Get returned the wrong value")
	}
	if err := c.Delete([]byte("key007")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get([]byte("key007")); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("deleted key: %v", err)
	}
	// Secondary range delete: values with delete key in [10, 20) vanish.
	if err := c.DeleteSecondaryRange(10, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get([]byte("key012")); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("range-deleted key: %v", err)
	}
	if err := c.Apply([]wire.BatchOp{
		{Key: []byte("b1"), Value: storetest.Value(900, 1)},
		{Delete: true, Key: []byte("key099")},
	}); err != nil {
		t.Fatal(err)
	}
	kvs, err := c.Scan([]byte("key050"), []byte("key060"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("scan returned %d entries, want 10", len(kvs))
	}
	for i, kv := range kvs {
		if string(kv.Key) != fmt.Sprintf("key%03d", 50+i) {
			t.Fatalf("scan order: entry %d is %q", i, kv.Key)
		}
	}
	raw, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Shards   int `json:"shards"`
		PerShard []struct {
			Gets int64 `json:"gets"`
		} `json:"per_shard"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if doc.Shards != 2 || len(doc.PerShard) != 2 {
		t.Fatalf("stats doc: %s", raw)
	}
}

// TestServerProtocolErrors checks that malformed frames are answered with
// a typed protocol error and the connection is dropped, without harming
// other connections.
func TestServerProtocolErrors(t *testing.T) {
	r := testRouter(t, 1)
	defer r.Close()
	srv := New(r, Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// An unknown op decodes to a protocol error response...
	if err := wire.WriteFrame(conn, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, rerr, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rerr == nil || rerr.Code != wire.CodeProtocol {
		t.Fatalf("unknown op answered %+v, want CodeProtocol", rerr)
	}
	// ...and the server hangs up afterwards.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(conn, nil); err == nil {
		t.Fatal("connection stayed open after a protocol error")
	}

	// A healthy connection still works.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestServerStressChaosClients hammers a live server with concurrent
// clients that randomly disconnect mid-stream, checks that surviving
// clients see coherent data, that Close is bounded while requests are in
// flight, and that every connection goroutine unwinds (no leaks). The
// "Stress" name places it under the race-detector gate.
func TestServerStressChaosClients(t *testing.T) {
	baseline := runtime.NumGoroutine()

	r := testRouter(t, 2)
	srv := New(r, Config{OpTimeout: 5 * time.Second})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	var wg sync.WaitGroup
	hardErrs := make(chan error, clients)
	stop := make(chan struct{})
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				c, err := client.Dial(addr)
				if err != nil {
					// Expected once Close starts racing the dials.
					return
				}
				abrupt := rng.Intn(3) == 0
				for i := 0; i < 20; i++ {
					k := []byte(fmt.Sprintf("chaos-%02d-%04d", w, rng.Intn(500)))
					var opErr error
					switch rng.Intn(4) {
					case 0:
						opErr = c.Put(k, storetest.Value(uint64(rng.Intn(100)), i))
					case 1:
						if _, err := c.Get(k); err != nil && !errors.Is(err, core.ErrNotFound) {
							opErr = err
						}
					case 2:
						opErr = c.Delete(k)
					default:
						_, opErr = c.Scan([]byte(fmt.Sprintf("chaos-%02d-", w)), nil, 32)
					}
					if opErr != nil {
						// Server-side shutdown races surface as closed/io
						// errors; anything engine-shaped is a real failure.
						if errors.Is(opErr, wire.ErrProtocol) {
							select {
							case hardErrs <- fmt.Errorf("client %d iter %d: %w", w, iter, opErr):
							default:
							}
						}
						break
					}
					if abrupt && i == 10 {
						break // drop the connection mid-conversation
					}
				}
				c.Close()
			}
		}(w)
	}

	// Let the chaos run, then close the server while requests are still in
	// flight; Close must drain every connection goroutine within bounds.
	time.Sleep(300 * time.Millisecond)
	close(stop)
	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server Close blocked behind live connections")
	}
	wg.Wait()
	select {
	case err := <-hardErrs:
		t.Fatal(err)
	default:
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Every accept/connection goroutine and the engine's background workers
	// must unwind.
	leakDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A second Close is a no-op, mirroring the engine's idempotent close.
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// gateFS parks every sstable create on gate while armed, pinning the flush
// that would relieve a write stall.
type gateFS struct {
	vfs.FS
	armed atomic.Bool
	gate  chan struct{}
}

func (g *gateFS) Create(name string) (vfs.File, error) {
	if g.armed.Load() && strings.HasSuffix(name, ".sst") {
		<-g.gate
	}
	return g.FS.Create(name)
}

// waitGoroutines fails t unless the goroutine count falls back to baseline
// within a few seconds.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOpTimeoutBoundsParkedRequest: a request that parks in the engine —
// behind a write stall, or queued behind a stalled commit leader — gets an
// error back over the wire within a small multiple of Config.OpTimeout, and
// once the stall is released and everything closed, no timer or wake
// goroutine is left behind.
func TestOpTimeoutBoundsParkedRequest(t *testing.T) {
	const timeout = 50 * time.Millisecond
	// open starts a one-shard store whose flushes pin on a gate, so writes
	// stall once the engine's limit of four sealed memtables is queued (the
	// oldest pinned in its flush), and serves it.
	open := func(t *testing.T) (*gateFS, *shard.Router, *Server, *client.Client) {
		fs := &gateFS{FS: vfs.NewMemFS(), gate: make(chan struct{})}
		fs.armed.Store(true)
		r, err := shard.Open("db", core.Options{
			FS:            fs,
			Shards:        1,
			MemTableBytes: 4 << 10,
			DeleteKeyFunc: storetest.DeleteKey,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(r, Config{OpTimeout: timeout})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		return fs, r, srv, c
	}
	// timedPut issues one Put over the wire and fails t if it has not
	// answered within 10 x OpTimeout.
	timedPut := func(t *testing.T, c *client.Client, key string) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- c.Put([]byte(key), storetest.Value(1, 1)) }()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * timeout):
			t.Fatalf("Put(%q) still parked after %v with OpTimeout %v", key, 10*timeout, timeout)
			return nil
		}
	}
	shutdown := func(t *testing.T, c *client.Client, srv *Server, r *shard.Router) {
		t.Helper()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("stall", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		fs, r, srv, c := open(t)
		var err error
		for i := 0; err == nil; i++ {
			if i == 10000 {
				t.Fatal("writes never stalled behind the gated flush")
			}
			err = timedPut(t, c, fmt.Sprintf("k%06d", i))
		}
		if errors.Is(err, wire.ErrProtocol) || !strings.Contains(err.Error(), "deadline exceeded") {
			t.Fatalf("stalled Put = %v, want the stall's deadline error", err)
		}
		if got := r.Stats()[0].StallTimeouts.Get(); got != 1 {
			t.Fatalf("StallTimeouts = %d, want 1", got)
		}
		close(fs.gate)
		shutdown(t, c, srv, r)
		waitGoroutines(t, baseline)
	})

	t.Run("commit-follower", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		fs, r, srv, c := open(t)
		// An embedded writer with a long deadline fills the memtables until
		// it stalls as the commit leader; a request over the wire then
		// queues behind it as a follower.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		var stop atomic.Bool
		leaderDone := make(chan error, 1)
		go func() {
			for i := 0; !stop.Load(); i++ {
				if err := r.PutCtx(ctx, []byte(fmt.Sprintf("k%06d", i)), storetest.Value(1, i)); err != nil {
					leaderDone <- err
					return
				}
			}
			leaderDone <- nil
		}()
		st := r.Stats()[0]
		deadline := time.Now().Add(10 * time.Second)
		for st.WriteStalls.Get() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("the embedded writer never stalled behind the gated flush")
			}
			time.Sleep(100 * time.Microsecond)
		}
		err := timedPut(t, c, "queued")
		if errors.Is(err, wire.ErrProtocol) || !strings.Contains(err.Error(), "deadline exceeded") {
			t.Fatalf("queued Put = %v, want the queue's deadline error", err)
		}
		if got := st.CommitCancels.Get(); got != 1 {
			t.Fatalf("CommitCancels = %d, want 1: the request did not time out in the commit queue", got)
		}
		stop.Store(true)
		close(fs.gate)
		if err := <-leaderDone; err != nil {
			t.Fatalf("stalled embedded writer: %v", err)
		}
		shutdown(t, c, srv, r)
		waitGoroutines(t, baseline)
	})
}

// TestScanPageAtFrameBudget: with values near 64 KiB the frame budget, not
// the entry cap, ends each scan page. The page must be a valid frame no
// larger than wire.MaxFrame, cut at an entry boundary exactly where the
// next entry would overrun scanBodyBudget, and paging past the last key
// must read back every entry of the store.
func TestScanPageAtFrameBudget(t *testing.T) {
	r, err := shard.Open("db", core.Options{
		FS:            vfs.NewMemFS(),
		Shards:        2,
		MemTableBytes: 4 << 20,
		DeleteKeyFunc: storetest.DeleteKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rng := rand.New(rand.NewSource(64))
	m := storetest.NewModel()
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("big%03d", i)
		v := make([]byte, 60<<10+rng.Intn(8<<10))
		rng.Read(v)
		binary.BigEndian.PutUint64(v, uint64(i))
		if err := r.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		m.Put(k, v)
	}
	keys := m.Keys()

	srv := New(r, Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The first page, read as a raw frame.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.AppendRequest(nil, wire.Request{Op: wire.OpScan})); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) > wire.MaxFrame {
		t.Fatalf("scan page of %d bytes exceeds the %d-byte frame cap", len(payload), wire.MaxFrame)
	}
	status, body, rerr, err := wire.DecodeResponse(payload)
	if err != nil || rerr != nil || status != wire.StatusOK {
		t.Fatalf("scan page: status %v, %v, %v", status, rerr, err)
	}
	n := 0
	if err := wire.DecodeScanBody(body, func(key, value []byte) {
		if string(key) != keys[n] || string(value) != string(m.Data[keys[n]]) {
			t.Fatalf("page entry %d is %q, want %q", n, key, keys[n])
		}
		n++
	}); err != nil {
		t.Fatalf("page not cut at an entry boundary: %v", err)
	}
	if n == 0 || n == len(keys) {
		t.Fatalf("page holds %d of %d entries; the budget should end it early", n, len(keys))
	}
	if next := len(keys[n]) + len(m.Data[keys[n]]); len(body)+next+16 <= scanBodyBudget {
		t.Fatalf("page of %d body bytes stopped before entry %d (%d bytes) although it fit the %d-byte budget",
			len(body), n, next, scanBodyBudget)
	}

	// The client pages through everything by re-seeking past its last key.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got []client.KV
	var lower []byte
	for pages := 0; ; pages++ {
		page, err := c.Scan(lower, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		if pages == len(keys) {
			t.Fatal("paging never reached the end of the store")
		}
		got = append(got, page...)
		lower = append(append([]byte(nil), page[len(page)-1].Key...), 0)
	}
	if len(got) != len(keys) {
		t.Fatalf("paged scan read %d entries, store has %d", len(got), len(keys))
	}
	for i, kv := range got {
		if string(kv.Key) != keys[i] || string(kv.Value) != string(m.Data[keys[i]]) {
			t.Fatalf("paged entry %d is %q, want %q", i, kv.Key, keys[i])
		}
	}
}

// TestScanErrorAnswersCleanly: an iterator that fails partway through a
// page discards the entries already encoded and answers the error alone,
// and the connection goes on serving.
func TestScanErrorAnswersCleanly(t *testing.T) {
	efs := errorfs.Wrap(vfs.NewMemFS(), 1)
	r, err := shard.Open("db", core.Options{
		FS:                     efs,
		Shards:                 1,
		DeleteKeyFunc:          storetest.DeleteKey,
		DisableAutoMaintenance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const keys = 2000
	for i := 0; i < keys; i++ {
		if err := r.Put([]byte(fmt.Sprintf("key%05d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	srv := New(r, Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Fail a table read a few blocks into the scan.
	rule := efs.Add(&errorfs.Rule{Ops: []errorfs.Op{errorfs.OpRead}, PathGlob: "*.sst", Countdown: 3, Kind: errorfs.FaultTransient})
	kvs, err := c.Scan(nil, nil, 0)
	if rule.Fired() == 0 {
		t.Fatalf("the scan read no table block past the fault's countdown (%d entries, %v)", len(kvs), err)
	}
	if err == nil || errors.Is(err, wire.ErrProtocol) || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("Scan over a failing read = %d entries, %v; want the injected error alone", len(kvs), err)
	}
	efs.Clear()
	kvs, err = c.Scan(nil, nil, 0)
	if err != nil || len(kvs) != keys {
		t.Fatalf("Scan after the fault = %d entries, %v; want %d", len(kvs), err, keys)
	}
}

// raceEnabled reports whether the test binary runs under the race detector,
// whose sync.Pool drops items at random.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestGetAllocCeiling: serving a get of a cached key allocates the value
// the engine returns and the request's context — no timer, which a
// request only arms when it parks.
func TestGetAllocCeiling(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	r, err := shard.Open("db", core.Options{
		FS:                     vfs.NewMemFS(),
		Shards:                 1,
		DeleteKeyFunc:          storetest.DeleteKey,
		DisableAutoMaintenance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Put([]byte("k"), storetest.Value(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	srv := New(r, Config{OpTimeout: 5 * time.Second})
	req := wire.Request{Op: wire.OpGet, Key: []byte("k")}
	var buf []byte
	buf = srv.execute(req, buf) // warm the block cache
	if status, _, _, _ := wire.DecodeResponse(buf); status != wire.StatusOK {
		t.Fatalf("get of a flushed key answered status %v", status)
	}
	if n := testing.AllocsPerRun(1000, func() { buf = srv.execute(req, buf[:0]) }); n > 2 {
		t.Fatalf("served get of a cached key: %v allocations, want at most 2", n)
	}
}

// TestOpContextContract pins opContext to the context.Context contract that
// context.WithTimeout keeps: Err is non-nil exactly when Done is closed or
// the deadline has passed, the timer is armed only by Done, and the
// request's end releases everything parked on it.
func TestOpContextContract(t *testing.T) {
	const timeout = 20 * time.Millisecond
	s := New(nil, Config{OpTimeout: timeout})

	t.Run("never-parked", func(t *testing.T) {
		c := s.opCtx()
		if dl, ok := c.Deadline(); !ok || time.Until(dl) > timeout {
			t.Fatalf("Deadline() = %v, %v; want within %v", dl, ok, timeout)
		}
		if err := c.Err(); err != nil {
			t.Fatalf("Err before the deadline = %v", err)
		}
		time.Sleep(timeout)
		if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err past the deadline = %v, want DeadlineExceeded", err)
		}
		if c.timer != nil {
			t.Fatal("Err armed a timer")
		}
		select {
		case <-c.Done():
		default:
			t.Fatal("Done is open although Err reported the deadline")
		}
		c.cancel()
		if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err after cancel = %v; the first end must stick", err)
		}
	})

	t.Run("parked", func(t *testing.T) {
		c := s.opCtx()
		woken := make(chan struct{})
		stop := context.AfterFunc(c, func() { close(woken) })
		defer stop()
		// Several waiters park on Done at once, as a commit follower and a
		// stall's wake goroutine do.
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-c.Done()
				if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("Err once Done closed = %v, want DeadlineExceeded", err)
				}
			}()
		}
		select {
		case <-woken:
		case <-time.After(100 * timeout):
			t.Fatal("the armed deadline never fired")
		}
		wg.Wait()
		c.cancel()
	})

	t.Run("cancelled", func(t *testing.T) {
		c := s.opCtx()
		done := c.Done()
		c.cancel()
		select {
		case <-done:
		default:
			t.Fatal("cancel left Done open")
		}
		if err := c.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Err after cancel = %v, want Canceled", err)
		}
		if c.timer.Stop() {
			t.Fatal("cancel left the armed timer running")
		}
	})
}
