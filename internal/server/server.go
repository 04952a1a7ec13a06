// Package server implements acherond's TCP front end: one goroutine per
// connection, each speaking the length-prefixed binary protocol of package
// wire against a sharded store. Every request runs through the engine's
// ctx-aware API under a per-operation deadline, so a stalled or overloaded
// engine rejects work instead of wedging connections, and the error comes
// back over the wire with its classification intact (overloaded, closed,
// protocol) for the client to restore.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Config tunes a Server. The zero value works.
type Config struct {
	// OpTimeout is the deadline attached to every request's context; it
	// bounds admission waits, write stalls, and group-commit queueing.
	// Its timer is armed only when an op waits on one of those: a request
	// that never parks compares the clock against the deadline instead.
	// 0 disables (requests may block indefinitely on a saturated engine,
	// and Close then blocks behind them). Default 0.
	OpTimeout time.Duration
	// MaxScanEntries caps the entries in one scan response regardless of
	// the client's limit, keeping the response under the frame cap.
	// Default 4096.
	MaxScanEntries int
}

// Server serves the wire protocol over TCP against one Router.
type Server struct {
	r   *shard.Router
	cfg Config

	// mu guards the connection set and lifecycle. It is a leaf lock: it is
	// never held across engine calls or connection I/O, only across map
	// bookkeeping and the shutdown wait below.
	mu         sync.Mutex
	cond       *sync.Cond
	conns      map[net.Conn]struct{}
	closed     bool
	ln         net.Listener
	acceptDone chan struct{}
}

// New returns a server for r; call Start to begin serving.
func New(r *shard.Router, cfg Config) *Server {
	if cfg.MaxScanEntries <= 0 {
		cfg.MaxScanEntries = 4096
	}
	s := &Server{r: r, cfg: cfg, conns: make(map[net.Conn]struct{})}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves connections until
// Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return "", net.ErrClosed
	}
	if s.ln != nil {
		s.mu.Unlock()
		_ = ln.Close()
		return "", errors.New("server: already started")
	}
	s.ln = ln
	s.acceptDone = make(chan struct{})
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer close(s.acceptDone)
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Listener closed (shutdown) or fatal accept error either way
			// the loop is done; transient per-conn errors don't reach here.
			return
		}
		if !s.register(conn) {
			_ = conn.Close()
			return
		}
		go s.handle(conn)
	}
}

// register adds conn to the live set, refusing when the server is closed.
func (s *Server) register(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

// unregister removes conn and wakes Close's drain wait.
func (s *Server) unregister(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Close stops accepting, force-closes every live connection, and waits for
// their handler goroutines to drain. A handler mid-engine-call finishes
// that call first, so with Config.OpTimeout set the wait is bounded by it;
// the store itself is not closed (the caller owns the Router). Close is
// idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	// Handlers observe their closed connection, finish the in-flight
	// request, and unregister; wait for the set to drain. The predicate
	// re-check loop follows the engine's cond discipline: Broadcast may
	// wake this waiter while another handler is still registered.
	for len(s.conns) > 0 {
		s.cond.Wait()
	}
	done := s.acceptDone
	s.mu.Unlock()
	if done != nil {
		<-done
	}
	return nil
}

// handle serves one connection until EOF, a protocol violation, or
// shutdown.
func (s *Server) handle(conn net.Conn) {
	defer s.unregister(conn)
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var rbuf, wbuf []byte
	for {
		payload, err := wire.ReadFrame(br, rbuf)
		if err != nil {
			// Clean EOF between frames is a normal disconnect; a frame
			// violation gets a typed reply before the drop so the client
			// can distinguish it from a network failure.
			if errors.Is(err, wire.ErrProtocol) {
				wbuf = wire.AppendErr(wbuf[:0], wire.CodeProtocol, err.Error())
				_ = wire.WriteFrame(bw, wbuf)
				_ = bw.Flush()
			}
			return
		}
		rbuf = payload[:cap(payload)]
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			// The stream may be desynchronized; answer and drop.
			wbuf = wire.AppendErr(wbuf[:0], wire.CodeProtocol, err.Error())
			_ = wire.WriteFrame(bw, wbuf)
			_ = bw.Flush()
			return
		}
		wbuf = s.execute(req, wbuf[:0])
		if err := wire.WriteFrame(bw, wbuf); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// opCtx returns the context for one request, or nil when Config.OpTimeout
// is off.
func (s *Server) opCtx() *opContext {
	if s.cfg.OpTimeout <= 0 {
		return nil
	}
	return &opContext{deadline: time.Now().Add(s.cfg.OpTimeout)}
}

// opContext is one request's context under Config.OpTimeout: it behaves as
// context.WithTimeout(context.Background(), OpTimeout) does, but arms its
// timer only when something first asks for Done — the admission queue, a
// commit follower, a write stall — so a request that never parks builds no
// timer. Until then Err reads the clock instead: once the deadline has
// passed it closes Done, as the fired timer would have, and reports
// context.DeadlineExceeded.
type opContext struct {
	deadline time.Time

	mu    sync.Mutex
	done  chan struct{} // nil until Done is first called
	timer *time.Timer   // nil until Done arms it
	err   error         // nil until the deadline passes or the request ends
}

func (c *opContext) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *opContext) Value(any) any { return nil }

func (c *opContext) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.err == nil {
			if d := time.Until(c.deadline); d > 0 {
				c.timer = time.AfterFunc(d, c.expire)
				return c.done
			}
			c.err = context.DeadlineExceeded
		}
		close(c.done)
	}
	return c.done
}

func (c *opContext) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil && !time.Now().Before(c.deadline) {
		c.endLocked(context.DeadlineExceeded)
	}
	return c.err
}

// expire is the armed timer's callback.
func (c *opContext) expire() {
	c.mu.Lock()
	c.endLocked(context.DeadlineExceeded)
	c.mu.Unlock()
}

// cancel ends the request: it stops the timer if one was armed and closes
// Done if it exists, releasing anything still selecting on it.
func (c *opContext) cancel() {
	c.mu.Lock()
	if c.timer != nil {
		c.timer.Stop()
	}
	c.endLocked(context.Canceled)
	c.mu.Unlock()
}

// endLocked records err as the context's end and closes Done if it has been
// made; only the first end counts. c.mu is held.
func (c *opContext) endLocked(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	if c.done != nil {
		close(c.done)
	}
}

// appendEngineErr classifies err into a wire error response.
func appendEngineErr(dst []byte, err error) []byte {
	code := wire.CodeGeneric
	switch {
	case errors.Is(err, core.ErrOverloaded):
		code = wire.CodeOverloaded
	case errors.Is(err, core.ErrClosed):
		code = wire.CodeClosed
	}
	return wire.AppendErr(dst, code, err.Error())
}

// execute runs one decoded request and appends its response to dst.
func (s *Server) execute(req wire.Request, dst []byte) []byte {
	var ctx context.Context = context.Background()
	if oc := s.opCtx(); oc != nil {
		defer oc.cancel()
		ctx = oc
	}
	switch req.Op {
	case wire.OpPing:
		return wire.AppendOK(dst, nil)
	case wire.OpPut:
		if err := s.r.PutCtx(ctx, req.Key, req.Value); err != nil {
			return appendEngineErr(dst, err)
		}
		return wire.AppendOK(dst, nil)
	case wire.OpGet:
		v, err := s.r.GetCtx(ctx, req.Key)
		if errors.Is(err, core.ErrNotFound) {
			return wire.AppendNotFound(dst)
		}
		if err != nil {
			return appendEngineErr(dst, err)
		}
		return wire.AppendOK(dst, v)
	case wire.OpDelete:
		if err := s.r.DeleteCtx(ctx, req.Key); err != nil {
			return appendEngineErr(dst, err)
		}
		return wire.AppendOK(dst, nil)
	case wire.OpRangeDelete:
		if err := s.r.DeleteSecondaryRangeCtx(ctx, req.Lo, req.Hi); err != nil {
			return appendEngineErr(dst, err)
		}
		return wire.AppendOK(dst, nil)
	case wire.OpScan:
		return s.scan(req, dst)
	case wire.OpBatch:
		b := core.NewBatch()
		for _, op := range req.Batch {
			if op.Delete {
				b.Delete(op.Key)
			} else {
				b.Put(op.Key, op.Value)
			}
		}
		if err := s.r.ApplyCtx(ctx, b); err != nil {
			return appendEngineErr(dst, err)
		}
		return wire.AppendOK(dst, nil)
	case wire.OpStats:
		return s.stats(dst)
	}
	return wire.AppendErr(dst, wire.CodeProtocol, fmt.Sprintf("unhandled op %s", req.Op))
}

// scanBodyBudget keeps a scan response comfortably under wire.MaxFrame.
const scanBodyBudget = wire.MaxFrame - 4096

// scan streams live keys in [req.Key, req.Value) — empty bounds are open —
// through the cross-shard merged iterator, up to the client's limit, the
// server cap, and the frame budget, whichever bites first. A truncated page
// simply ends early; the client continues by seeking past its last key.
func (s *Server) scan(req wire.Request, dst []byte) []byte {
	opts := shard.IterOptions{}
	if len(req.Key) > 0 {
		opts.LowerBound = req.Key
	}
	if len(req.Value) > 0 {
		opts.UpperBound = req.Value
	}
	it, err := s.r.NewIter(opts)
	if err != nil {
		return appendEngineErr(dst, err)
	}
	limit := int(req.Limit)
	if limit <= 0 || limit > s.cfg.MaxScanEntries {
		limit = s.cfg.MaxScanEntries
	}
	// The page is encoded straight into dst: the status byte, then each
	// entry. The budget counts the body only, from just past the status.
	start := len(dst)
	dst = append(dst, byte(wire.StatusOK))
	body := len(dst)
	n := 0
	for ok := it.First(); ok && n < limit; ok = it.Next() {
		if len(dst)-body+len(it.Key())+len(it.Value())+16 > scanBodyBudget {
			break
		}
		dst = wire.AppendScanEntry(dst, it.Key(), it.Value())
		n++
	}
	scanErr := it.Error()
	closeErr := it.Close()
	if scanErr == nil {
		scanErr = closeErr
	}
	if scanErr != nil {
		return appendEngineErr(dst[:start], scanErr)
	}
	return dst
}

// statsDoc is the stats response body: one JSON document aggregating the
// store plus a per-shard breakdown.
type statsDoc struct {
	Shards    int          `json:"shards"`
	Policy    string       `json:"policy"`
	DiskBytes uint64       `json:"disk_bytes"`
	PerShard  []shardStats `json:"per_shard"`
}

type shardStats struct {
	BytesIngested       int64 `json:"bytes_ingested"`
	Gets                int64 `json:"gets"`
	Deletes             int64 `json:"deletes"`
	LiveTombstones      int64 `json:"live_tombstones"`
	TombstonesPersisted int64 `json:"tombstones_persisted"`
	PersistedLate       int64 `json:"tombstones_persisted_late"`
	OldestTombstoneAge  int64 `json:"oldest_tombstone_age_ns"`
	Flushes             int64 `json:"flushes"`
	WALSyncs            int64 `json:"wal_syncs"`
}

func (s *Server) stats(dst []byte) []byte {
	doc := statsDoc{
		Shards:    s.r.NumShards(),
		Policy:    s.r.PolicyName(),
		DiskBytes: s.r.DiskSize(),
	}
	for i, st := range s.r.Stats() {
		doc.PerShard = append(doc.PerShard, shardStats{
			BytesIngested:       st.BytesIngested.Get(),
			Gets:                st.Gets.Get(),
			Deletes:             st.DeletesIssued.Get(),
			LiveTombstones:      st.LiveTombstones.Get(),
			TombstonesPersisted: st.TombstonesPersisted.Get(),
			PersistedLate:       st.TombstonesPersistedLate.Get(),
			OldestTombstoneAge:  s.r.Shard(i).OldestTombstoneAge(),
			Flushes:             st.Flushes.Get(),
			WALSyncs:            st.WALSyncs.Get(),
		})
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return appendEngineErr(dst, err)
	}
	return wire.AppendOK(dst, body)
}
