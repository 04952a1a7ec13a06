package client

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storetest"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// serve starts an in-process acherond on loopback over a fresh in-memory
// sharded store and returns the store and a connected client; everything is
// torn down with the test.
func serve(t testing.TB, opts core.Options, cfg server.Config) (*shard.Router, *Client) {
	t.Helper()
	opts.FS = vfs.NewMemFS()
	opts.DeleteKeyFunc = storetest.DeleteKey
	r, err := shard.Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(r, cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		srv.Close()
		r.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		r.Close() // ErrClosed when the test closed it already
	})
	return r, c
}

// scanAll pages through [lower, upper) the way the Scan contract says to:
// re-issue with lower set just past the last returned key until a page comes
// back empty.
func scanAll(c *Client, lower, upper []byte, pageLimit int) ([]KV, error) {
	var out []KV
	for {
		page, err := c.Scan(lower, upper, pageLimit)
		if err != nil || len(page) == 0 {
			return out, err
		}
		out = append(out, page...)
		lower = append(append([]byte(nil), page[len(page)-1].Key...), 0)
	}
}

// kvIter walks the entries of a paged scan.
type kvIter struct {
	kvs []KV
	i   int
}

func (it *kvIter) First() bool   { it.i = 0; return it.i < len(it.kvs) }
func (it *kvIter) Next() bool    { it.i++; return it.i < len(it.kvs) }
func (it *kvIter) Key() []byte   { return it.kvs[it.i].Key }
func (it *kvIter) Value() []byte { return it.kvs[it.i].Value }
func (it *kvIter) Error() error  { return nil }
func (it *kvIter) Close() error  { return nil }

// TestClientModelDifferential runs the shared op soup through the client,
// the wire, the server and a 3-shard router, and diffs it against the model.
// The memtable is small so flushes and compactions run underneath, and the
// server's page cap is small so full scans take several round trips; scans
// page alternately at the server's cap and at 5, below it. The fade run is
// the soup's FADE configuration, on a logical clock the server's
// maintenance reads as the soup advances it: most flushes there merge their
// memtable straight into level 1.
func TestClientModelDifferential(t *testing.T) {
	for _, fade := range []bool{false, true} {
		t.Run(fmt.Sprintf("fade=%v", fade), func(t *testing.T) {
			opts := core.Options{Shards: 3, MemTableBytes: 8 << 10}
			cfg := storetest.Config{
				Seed: 20230613, Ops: 4000, Keys: 300, DeleteKeys: 1000, CheckEvery: 800,
				Mix: storetest.Mix{Put: 45, Delete: 15, Batch: 10, RangeDelete: 5, Get: 22, Scan: 3},
			}
			if fade {
				clk := &syncClock{}
				opts.Clock = clk
				opts.Compaction = compaction.Options{Picker: compaction.PickFADE, DPT: storetest.FADEDPT}
				cfg.Clock, cfg.Tick, cfg.FADE = clk, 1000, true
			}
			r, c := serve(t, opts, server.Config{OpTimeout: 10 * time.Second, MaxScanEntries: 16})
			scans := 0
			storetest.Run(t, &storetest.Target{
				Store:    c,
				NotFound: core.ErrNotFound,
				Apply: func(ops []storetest.Op) error {
					batch := make([]wire.BatchOp, len(ops))
					for i, o := range ops {
						batch[i] = wire.BatchOp{Key: o.Key, Value: o.Value, Delete: o.Delete}
					}
					return c.Apply(batch)
				},
				Scan: func(b storetest.Bounds) (storetest.Iter, error) {
					lower, upper := b.Lower, b.Upper
					if n := len(b.Prefix); n > 0 {
						lower = b.Prefix
						upper = append(bytes.Clone(b.Prefix[:n-1]), b.Prefix[n-1]+1)
					}
					scans++
					kvs, err := scanAll(c, lower, upper, []int{0, 5}[scans%2])
					return &kvIter{kvs: kvs}, err
				},
				FlushesToL1: func() int64 {
					var n int64
					for _, s := range r.Stats() {
						n += s.FlushesToL1.Get()
					}
					return n
				},
			}, cfg)
		})
	}
}

// syncClock is a logical clock that the soup advances while the server's
// maintenance goroutines read it.
type syncClock struct{ now atomic.Int64 }

func (c *syncClock) Now() base.Timestamp { return base.Timestamp(c.now.Load()) }

func (c *syncClock) Advance(d base.Duration) base.Timestamp {
	return base.Timestamp(c.now.Add(int64(d)))
}

// TestClientRestoresSentinels: engine errors cross the wire as codes and
// come back matching the same sentinels the embedded API returns.
func TestClientRestoresSentinels(t *testing.T) {
	// A one-token bucket that takes an hour to refill: the second write is
	// rejected by admission control.
	r, c := serve(t, core.Options{
		Admission: admission.Config{WriteRate: 1.0 / 3600, WriteBurst: 1, MaxWait: time.Millisecond},
	}, server.Config{OpTimeout: 10 * time.Second})

	if _, err := c.Get([]byte("missing")); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	if err := c.Put([]byte("k"), storetest.Value(1, 1)); err != nil {
		t.Fatalf("first Put: %v", err)
	}
	if err := c.Put([]byte("k"), storetest.Value(2, 2)); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("Put on an empty bucket = %v, want ErrOverloaded", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get([]byte("k")); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Get on a closed store = %v, want ErrClosed", err)
	}
}

// loopReader serves frame over and over, standing in for a server that
// answers every request with it.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.off:])
	l.off = (l.off + n) % len(l.frame)
	return n, nil
}

// TestScanPageOneAllocation: Client.Scan decodes a 20-entry page with two
// allocations beyond the round trip's own — one backing array for every
// key and value, and the exact-size []KV — and each entry's Key and Value
// can be appended to without touching its neighbours.
func TestScanPageOneAllocation(t *testing.T) {
	var body []byte
	for i := 0; i < 20; i++ {
		body = wire.AppendScanEntry(body, []byte(fmt.Sprintf("key%02d", i)), storetest.Value(uint64(i), i))
	}
	var frame bytes.Buffer
	if err := wire.WriteFrame(&frame, wire.AppendOK(nil, body)); err != nil {
		t.Fatal(err)
	}
	// A Client on a scripted stream: every request is written to nowhere
	// and answered with the page. Ping pays the same round trip and reads
	// the same frame, so the difference is what Scan's decode allocates.
	c := &Client{br: bufio.NewReader(&loopReader{frame: frame.Bytes()}), bw: bufio.NewWriter(io.Discard)}
	var kvs []KV
	var err error
	scan := testing.AllocsPerRun(200, func() { kvs, err = c.Scan(nil, nil, 20) })
	if err != nil {
		t.Fatal(err)
	}
	ping := testing.AllocsPerRun(200, func() { err = c.Ping() })
	if err != nil {
		t.Fatal(err)
	}
	if scan-ping > 2 {
		t.Fatalf("Scan of a 20-entry page: %v allocations beyond the round trip's %v, want at most 2", scan-ping, ping)
	}

	if len(kvs) != 20 || cap(kvs) != 20 {
		t.Fatalf("Scan returned len %d cap %d, want an exact 20", len(kvs), cap(kvs))
	}
	for i := range kvs {
		kvs[i].Key = append(kvs[i].Key, '!')
		kvs[i].Value = append(kvs[i].Value, '!')
	}
	for i, kv := range kvs {
		wantKey := fmt.Sprintf("key%02d!", i)
		wantValue := string(storetest.Value(uint64(i), i)) + "!"
		if string(kv.Key) != wantKey || string(kv.Value) != wantValue {
			t.Fatalf("entry %d after appends is %q=%x, want %q=%x", i, kv.Key, kv.Value, wantKey, wantValue)
		}
	}
}

// BenchmarkServedRoundTrip prices one request through the client, loopback
// TCP, the server and a two-shard in-memory store, per op: get and put of
// one key, and a scan of 20 entries. Allocations count both sides of the
// connection.
func BenchmarkServedRoundTrip(b *testing.B) {
	const keys = 1000
	_, c := serve(b, core.Options{Shards: 2}, server.Config{OpTimeout: 2 * time.Second})
	keyList := make([][]byte, keys)
	for i := range keyList {
		keyList[i] = []byte(fmt.Sprintf("key%06d", i))
	}
	key := func(i int) []byte { return keyList[i%keys] }
	for i := 0; i < keys; i++ {
		if err := c.Put(key(i), storetest.Value(uint64(i), i)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Get(key(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("put", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Put(key(i), storetest.Value(uint64(i), i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan20", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kvs, err := c.Scan(key(i%(keys-20)), nil, 20)
			if err != nil || len(kvs) != 20 {
				b.Fatalf("scan: %d entries, %v", len(kvs), err)
			}
		}
	})
}
