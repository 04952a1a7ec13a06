// Package client is the Go client for acherond's wire protocol. A Client
// owns one TCP connection and serializes request/response round trips over
// it, so a single Client is safe for concurrent use but pipelines nothing;
// open one Client per worker for parallel load (the benchmark harness
// does).
//
// Engine errors cross the wire with their classification intact: Get on a
// missing key returns core.ErrNotFound, an admission rejection returns an
// error matching core.ErrOverloaded, a closed store core.ErrClosed, and a
// framing violation wire.ErrProtocol — all via errors.Is, exactly as the
// embedded API behaves.
//
// Results belong to the caller. Get returns a fresh copy of the value; one
// Scan page is copied into a single backing array shared by its entries,
// each Key and Value capped at its own length, so a caller may retain or
// append to any of them without disturbing the others.
package client

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// KV is one scan result entry. The entries of one Scan page share a
// backing array, but every Key and Value is capped at its own length: an
// append reallocates rather than overwriting the neighbouring bytes, and
// retaining one entry keeps its page's array alive.
type KV struct {
	Key   []byte
	Value []byte
}

// Client is a synchronous acherond connection.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	rbuf   []byte
	wbuf   []byte
	closed bool
}

// Dial connects to an acherond server.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}, nil
}

// Close closes the connection. In-flight round trips on other goroutines
// fail with a connection error.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// restoreErr maps a server error response back onto the local sentinels.
func restoreErr(re *wire.RemoteError) error {
	switch re.Code {
	case wire.CodeOverloaded:
		return fmt.Errorf("acherond: %s: %w", re.Msg, core.ErrOverloaded)
	case wire.CodeClosed:
		return fmt.Errorf("acherond: %s: %w", re.Msg, core.ErrClosed)
	case wire.CodeProtocol:
		return fmt.Errorf("acherond: %s: %w", re.Msg, wire.ErrProtocol)
	}
	return fmt.Errorf("acherond: %s", re.Msg)
}

// roundTrip sends req and returns the response status and body. The body
// aliases the client's receive buffer; it is only valid until the next
// round trip, which the held lock prevents until the caller copies.
func (c *Client) roundTrip(req wire.Request) (wire.Status, []byte, error) {
	c.wbuf = wire.AppendRequest(c.wbuf[:0], req)
	if err := wire.WriteFrame(c.bw, c.wbuf); err != nil {
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	payload, err := wire.ReadFrame(c.br, c.rbuf)
	if err != nil {
		return 0, nil, err
	}
	c.rbuf = payload[:cap(payload)]
	status, body, re, err := wire.DecodeResponse(payload)
	if err != nil {
		return 0, nil, err
	}
	if re != nil {
		return status, nil, restoreErr(re)
	}
	return status, body, nil
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _, err := c.roundTrip(wire.Request{Op: wire.OpPing})
	return err
}

// Put inserts or updates key.
func (c *Client) Put(key, value []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _, err := c.roundTrip(wire.Request{Op: wire.OpPut, Key: key, Value: value})
	return err
}

// Get returns the value for key, or core.ErrNotFound.
func (c *Client) Get(key []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	status, body, err := c.roundTrip(wire.Request{Op: wire.OpGet, Key: key})
	if err != nil {
		return nil, err
	}
	if status == wire.StatusNotFound {
		return nil, core.ErrNotFound
	}
	return append([]byte(nil), body...), nil
}

// Delete writes a point tombstone for key.
func (c *Client) Delete(key []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _, err := c.roundTrip(wire.Request{Op: wire.OpDelete, Key: key})
	return err
}

// DeleteSecondaryRange deletes every record whose secondary delete key
// falls in [lo, hi), across all shards.
func (c *Client) DeleteSecondaryRange(lo, hi uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _, err := c.roundTrip(wire.Request{Op: wire.OpRangeDelete, Lo: lo, Hi: hi})
	return err
}

// Apply commits ops as one batch request. Atomicity matches the sharded
// store: all-or-nothing per shard, not across shards.
func (c *Client) Apply(ops []wire.BatchOp) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _, err := c.roundTrip(wire.Request{Op: wire.OpBatch, Batch: ops})
	return err
}

// Scan returns up to limit live entries in [lower, upper); nil bounds are
// open, limit <= 0 requests the server's cap. The server may truncate a
// page at its entry cap or frame budget; continue by re-issuing with lower
// set just past the last returned key.
func (c *Client) Scan(lower, upper []byte, limit int) ([]KV, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if limit < 0 {
		limit = 0
	}
	_, body, err := c.roundTrip(wire.Request{
		Op: wire.OpScan, Key: lower, Value: upper, Limit: uint64(limit),
	})
	if err != nil {
		return nil, err
	}
	// Size the page first, then copy it into one backing array.
	n, size := 0, 0
	err = wire.DecodeScanBody(body, func(key, value []byte) {
		n++
		size += len(key) + len(value)
	})
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]KV, 0, n)
	buf := make([]byte, 0, size)
	_ = wire.DecodeScanBody(body, func(key, value []byte) {
		k := len(buf)
		buf = append(buf, key...)
		v := len(buf)
		buf = append(buf, value...)
		out = append(out, KV{Key: buf[k:v:v], Value: buf[v:len(buf):len(buf)]})
	})
	return out, nil
}

// Stats returns the server's stats document (JSON).
func (c *Client) Stats() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, body, err := c.roundTrip(wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), body...), nil
}
