package client

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/base"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vfs"
	"repro/internal/wire"
)

func testDK(v []byte) base.DeleteKey {
	if len(v) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

func testValue(dk uint64, tag int) []byte {
	v := make([]byte, 16)
	binary.BigEndian.PutUint64(v, dk)
	binary.BigEndian.PutUint64(v[8:], uint64(tag))
	return v
}

// serve starts an in-process acherond on loopback over a fresh in-memory
// sharded store and returns the store and a connected client; everything is
// torn down with the test.
func serve(t testing.TB, opts core.Options, cfg server.Config) (*shard.Router, *Client) {
	t.Helper()
	opts.FS = vfs.NewMemFS()
	opts.DeleteKeyFunc = testDK
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
func scanAll(t *testing.T, c *Client, lower, upper []byte, pageLimit int) []KV {
	t.Helper()
	var out []KV
	for {
		page, err := c.Scan(lower, upper, pageLimit)
		if err != nil {
			t.Fatalf("Scan(%q, %q): %v", lower, upper, err)
		}
		if len(page) == 0 {
			return out
		}
		out = append(out, page...)
		lower = append(append([]byte(nil), page[len(page)-1].Key...), 0)
	}
}

// TestClientModelDifferential runs a seeded random op stream through the
// client, the wire, the server and a 3-shard router, and checks every read
// against a map model. The memtable is small so flushes and compactions run
// underneath, and the server's page cap is small so full scans take several
// round trips.
func TestClientModelDifferential(t *testing.T) {
	_, c := serve(t,
		core.Options{Shards: 3, MemTableBytes: 8 << 10},
		server.Config{OpTimeout: 10 * time.Second, MaxScanEntries: 16})

	rng := rand.New(rand.NewSource(20230613))
	model := map[string][]byte{}
	key := func() string { return fmt.Sprintf("key%04d", rng.Intn(300)) }
	val := func(i int) []byte { return testValue(uint64(rng.Intn(1000)), i) }
	rangeDelete := func(lo, hi uint64) {
		for k, v := range model {
			if dk := testDK(v); dk >= lo && dk < hi {
				delete(model, k)
			}
		}
	}
	checkScan := func(op int, lower, upper string, pageLimit int) {
		var want []string
		for k := range model {
			if k >= lower && (upper == "" || k < upper) {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		var ub []byte
		if upper != "" {
			ub = []byte(upper)
		}
		got := scanAll(t, c, []byte(lower), ub, pageLimit)
		if len(got) != len(want) {
			t.Fatalf("op %d scan [%q,%q): %d keys, model has %d", op, lower, upper, len(got), len(want))
		}
		for i, kv := range got {
			if string(kv.Key) != want[i] || string(kv.Value) != string(model[want[i]]) {
				t.Fatalf("op %d scan [%q,%q): entry %d is %q, model has %q", op, lower, upper, i, kv.Key, want[i])
			}
		}
	}

	for i := 0; i < 4000; i++ {
		switch p := rng.Intn(100); {
		case p < 45:
			k, v := key(), val(i)
			if err := c.Put([]byte(k), v); err != nil {
				t.Fatalf("op %d Put: %v", i, err)
			}
			model[k] = v
		case p < 60:
			k := key()
			if err := c.Delete([]byte(k)); err != nil {
				t.Fatalf("op %d Delete: %v", i, err)
			}
			delete(model, k)
		case p < 65:
			lo := uint64(rng.Intn(950))
			hi := lo + uint64(1+rng.Intn(50))
			if err := c.DeleteSecondaryRange(lo, hi); err != nil {
				t.Fatalf("op %d DeleteSecondaryRange: %v", i, err)
			}
			rangeDelete(lo, hi)
		case p < 75:
			ops := make([]wire.BatchOp, 1+rng.Intn(8))
			for j := range ops {
				ops[j] = wire.BatchOp{Key: []byte(key())}
				if rng.Intn(4) == 0 {
					ops[j].Delete = true
				} else {
					ops[j].Value = val(i)
				}
			}
			if err := c.Apply(ops); err != nil {
				t.Fatalf("op %d Apply: %v", i, err)
			}
			for _, o := range ops {
				if o.Delete {
					delete(model, string(o.Key))
				} else {
					model[string(o.Key)] = o.Value
				}
			}
		case p < 97:
			k := key()
			got, err := c.Get([]byte(k))
			want, present := model[k]
			switch {
			case present && (err != nil || string(got) != string(want)):
				t.Fatalf("op %d Get(%q) = %x, %v; model has %x", i, k, got, err, want)
			case !present && !errors.Is(err, core.ErrNotFound):
				t.Fatalf("op %d Get(%q) = %x, %v; model has no such key", i, k, got, err)
			}
		default:
			lower, upper := key(), ""
			if rng.Intn(2) == 0 {
				upper = key()
			}
			// 0 asks for the server's cap; 5 is below it.
			checkScan(i, lower, upper, []int{0, 5}[rng.Intn(2)])
		}
	}
	checkScan(4000, "", "", 0)
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
	if err := c.Put([]byte("k"), testValue(1, 1)); err != nil {
		t.Fatalf("first Put: %v", err)
	}
	if err := c.Put([]byte("k"), testValue(2, 2)); !errors.Is(err, core.ErrOverloaded) {
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
		body = wire.AppendScanEntry(body, []byte(fmt.Sprintf("key%02d", i)), testValue(uint64(i), i))
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
		wantValue := string(testValue(uint64(i), i)) + "!"
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
		if err := c.Put(key(i), testValue(uint64(i), i)); err != nil {
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
			if err := c.Put(key(i), testValue(uint64(i), i)); err != nil {
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
