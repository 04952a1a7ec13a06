package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/base"
	"repro/internal/event"
	"repro/internal/memtable"
	"repro/internal/wal"
)

// This file implements the group-commit write pipeline. Writers no longer
// perform WAL I/O under d.mu: they enqueue a pendingCommit and either become
// the leader (first writer to arrive while no leader is active) or park until
// a leader processes them. The leader drains the whole queue as one group,
// runs the admission gate (closed / background error / stall backpressure /
// memtable rotation) once per group, stamps a contiguous sequence-number
// block, encodes every member's records into a single buffered WAL write and
// at most one fsync, then releases the members to apply their own entries to
// the memtable concurrently (the skiplist supports CAS inserts).
//
// Visibility is decoupled from allocation: d.vs.LastSeqNum() becomes the
// *allocated* counter (advanced by the leader before the WAL stage), while
// readers observe the *published* counter, commitPipeline.visible, which a
// ratchet advances only once every group at or below it has fully applied.
// Readers therefore never observe a half-applied group, and a batch stays
// atomic: its sequence block publishes in one step.
//
// Lock ordering: commitMu is acquired before d.mu, never the reverse. The
// leader holds commitMu across the gate, the sequence allocation, and the
// WAL stage, which serializes WAL appends with sequence order and pins the
// (memtable, WAL segment) pair each group binds to. Every memtable rotation
// in the engine happens under commitMu (leader boundary, flushAll, Close),
// so a captured pair cannot be swapped out mid-group.
//
// That order is recorded below, with the rest of the lock DAG (DESIGN.md
// "Lock-order DAG"); no tool checks it, so a path taking commitMu (or
// qmu/pmu) while d.mu is held shows up as a hang in the stress suites.
//
// acheron:locks order core.commitPipeline.commitMu < core.DB.mu
// acheron:locks order core.commitPipeline.commitMu < core.commitPipeline.qmu
// acheron:locks order core.commitPipeline.commitMu < core.commitPipeline.pmu
type commitPipeline struct {
	d *DB

	// qmu guards the arrival queue and leader election. spare is the
	// previous round's queue backing, recycled so steady-state rounds
	// allocate no queue storage.
	qmu          sync.Mutex
	queue        []*pendingCommit
	spare        []*pendingCommit
	leaderActive bool

	// commitMu serializes leader rounds: gate, seqnum allocation, WAL
	// append+sync, and publish-queue insertion. Acquired before d.mu.
	// scratch is the WAL-stage payload slice and walBuf the buffer the
	// round's payloads are encoded into and cut from, both reused across
	// rounds under commitMu. groups counts rounds reaching the WAL stage; one in
	// opSampleInterval is traced. It is the pipeline's own counter, not
	// DB.opSampleN: a lone writer's Put and its group would otherwise draw
	// alternately from one counter and the group would take every sample.
	commitMu sync.Mutex
	scratch  [][]byte
	walBuf   []byte
	groups   uint64

	// pmu guards publishQ, the FIFO of groups awaiting publication in
	// sequence order. visible is the published sequence number readers use.
	pmu      sync.Mutex
	publishQ []*commitGroup
	visible  atomic.Uint64
}

// commitSignal is what a parked writer receives on its notify channel.
type commitSignal uint8

const (
	// sigLead promotes the writer to leader of the next round.
	sigLead commitSignal = iota
	// sigWALDone tells the writer its group's WAL stage finished; it must
	// now apply its own entries and publish.
	sigWALDone
)

// pendingCommit is one writer's enqueued commit: either a slice of point
// operations (asBatch selects batch WAL framing) or a range tombstone.
type pendingCommit struct {
	ops     []batchOp
	asBatch bool
	rt      *base.RangeTombstone

	// ctx is the writer's context. Honored while parked in the arrival
	// queue (the writer withdraws on cancellation, best-effort: once a
	// leader claims the commit it runs to completion) and inside the stall
	// gate (the leader fails and releases expired members).
	ctx context.Context

	// opsBuf backs ops for single-record commits, so Put/Delete allocate
	// one object, not two.
	opsBuf [1]batchOp

	// notify is created by enqueue only for followers (buffered(1); at most
	// one signal ever sent). A writer that leads immediately never parks.
	notify chan commitSignal

	// promoted marks the queue head holding the leadership baton: sigLead
	// has been sent to its notify channel. Guarded by qmu; withdraw must
	// know whether the writer it removes has to pass the baton on.
	promoted bool

	// released marks a member the stall gate failed and signalled early
	// (its context expired mid-stall); leadRound must not signal it again.
	// Written and read only by the round's leader.
	released bool

	// groupBuf holds the round's commitGroup, embedded in the first group
	// member's pendingCommit to spare an allocation; the GC keeps it alive
	// as long as any member references it.
	groupBuf commitGroup

	// Filled by the leader before sigWALDone.
	group   *commitGroup
	baseSeq base.SeqNum
	mem     *memtable.MemTable
	// err is set instead of group when the group failed the admission gate
	// (nothing was allocated or written).
	err error
}

// seqCount returns how many sequence numbers the commit consumes.
func (pc *pendingCommit) seqCount() int {
	if pc.rt != nil {
		return 1
	}
	return len(pc.ops)
}

// commitGroup is one drained round's worth of commits.
type commitGroup struct {
	endSeq  base.SeqNum
	total   int32
	applied atomic.Int32
	// err is a WAL-stage failure, shared by every member: their entries
	// were never written, they skip the memtable apply, but the group still
	// publishes so the visibility ratchet advances over the allocated hole
	// (allocated sequence numbers are never reused).
	err error
	// done is Added once at group creation and Done'd at publication;
	// members Wait on it. A WaitGroup instead of a channel keeps the group
	// allocation-free (it lives embedded in a member's pendingCommit).
	done sync.WaitGroup
}

func newCommitPipeline(d *DB) *commitPipeline {
	return &commitPipeline{d: d}
}

// visibleSeqNum returns the published sequence number: the newest point at
// which every commit group has fully applied to the memtable.
func (p *commitPipeline) visibleSeqNum() base.SeqNum {
	return base.SeqNum(p.visible.Load())
}

// commit runs one writer's commit through the pipeline and blocks until the
// write is durable (per the sync policy), applied, and published — or, for a
// cancellable commit, until its context fires while it is still parked in
// the arrival queue, in which case it withdraws and fails without consuming
// a sequence number. Cancellation is best-effort: once a leader has claimed
// the commit it completes normally and the caller must treat the write as
// applied.
func (p *commitPipeline) commit(pc *pendingCommit) error {
	if p.enqueue(pc) {
		p.leadRound(pc)
		return p.finishCommit(pc)
	}
	// A context that can never fire has a nil Done channel, which keeps the
	// non-cancellable path select-free.
	if done := pc.ctx.Done(); done != nil {
		select {
		case sig := <-pc.notify:
			if sig == sigLead {
				p.leadRound(pc)
			}
		case <-done:
			if p.withdraw(pc) {
				p.d.stats.CommitCancels.Add(1)
				return fmt.Errorf("acheron: commit cancelled while queued: %w", pc.ctx.Err())
			}
			// A leader claimed us (or the baton arrived) before the
			// withdrawal: the signal is already in flight, so park for it
			// and complete the commit normally.
			if <-pc.notify == sigLead {
				p.leadRound(pc)
			}
		}
	} else if <-pc.notify == sigLead {
		p.leadRound(pc)
	}
	return p.finishCommit(pc)
}

// withdraw removes a cancelled follower from the arrival queue. It returns
// false when pc is no longer queued — the current leader's drain already
// owns it — and the caller must park for the pending signal. A promoted
// writer (it holds the leadership baton) drains its own sigLead and passes
// the baton on before leaving, so leadership is never stranded.
func (p *commitPipeline) withdraw(pc *pendingCommit) bool {
	p.qmu.Lock()
	defer p.qmu.Unlock()
	idx := -1
	for i, q := range p.queue {
		if q == pc {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	p.queue = append(p.queue[:idx], p.queue[idx+1:]...)
	if pc.promoted {
		// The baton was sent under qmu before promoted became observable,
		// so the buffered sigLead is guaranteed to be present: this receive
		// cannot block.
		<-pc.notify
		pc.promoted = false
		p.handoffLocked()
	}
	return true
}

// enqueue adds pc to the arrival queue, returning true when pc must lead.
// Followers get their park channel here; an immediate leader never parks and
// never pays for one.
func (p *commitPipeline) enqueue(pc *pendingCommit) bool {
	p.qmu.Lock()
	defer p.qmu.Unlock()
	p.queue = append(p.queue, pc)
	if !p.leaderActive {
		p.leaderActive = true
		return true
	}
	pc.notify = make(chan commitSignal, 1)
	return false
}

// leadRound drains the queue and processes it as one group, then signals the
// followers and hands leadership to the next arrival, if any.
func (p *commitPipeline) leadRound(own *pendingCommit) {
	p.commitMu.Lock()
	p.qmu.Lock()
	group := p.queue
	// Hand the previous round's backing array to the arrival queue so
	// steady-state rounds allocate nothing here.
	p.queue = p.spare
	p.spare = nil
	p.qmu.Unlock()

	p.processGroup(group, own)
	p.commitMu.Unlock()

	for _, pc := range group {
		if pc != own && !pc.released {
			pc.notify <- sigWALDone
		}
	}

	// The group slice is now leader-private (members hold only their own
	// pendingCommit pointers): clear and recycle it.
	for i := range group {
		group[i] = nil
	}
	p.qmu.Lock()
	if p.spare == nil {
		p.spare = group[:0]
	}
	p.handoffLocked()
	p.qmu.Unlock()
}

// handoffLocked passes the leadership baton to the queue head, or retires
// leadership when the queue is empty. Called with qmu held. The sigLead send
// happens under qmu — the channel is buffered and a queued writer never has
// a prior signal pending, so it cannot block — which makes promotion atomic
// with respect to withdraw: a cancelled writer always knows whether it holds
// the baton it must pass on.
func (p *commitPipeline) handoffLocked() {
	if len(p.queue) > 0 {
		next := p.queue[0]
		next.promoted = true
		next.notify <- sigLead
		return
	}
	p.leaderActive = false
}

// failPending rejects a whole group at the admission gate. Members the
// stall gate already failed individually keep their own error.
func failPending(group []*pendingCommit, err error) {
	for _, pc := range group {
		if pc.err == nil {
			pc.err = err
		}
	}
}

// processGroup runs the admission gate, allocates the group's sequence
// block, and performs the WAL stage. Called with commitMu held. Members the
// stall gate expired (context deadline/cancel while stalled) are dropped
// from the round; the survivors commit.
func (p *commitPipeline) processGroup(group []*pendingCommit, own *pendingCommit) {
	d := p.d
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		failPending(group, ErrClosed)
		return
	}
	if err := d.backgroundErrLocked(); err != nil {
		d.mu.Unlock()
		failPending(group, err)
		return
	}
	// Backpressure applies to the whole group — including range deletes,
	// which previously bypassed the stall gate entirely and could grow the
	// flush backlog without bound.
	if err := d.stallWritesLocked(group, own); err != nil {
		d.mu.Unlock()
		failPending(group, err)
		return
	}
	// The stall gate may have failed (and already released) members whose
	// context expired; the round continues with the survivors.
	active := group
	failed := 0
	for _, pc := range group {
		if pc.err != nil {
			failed++
		}
	}
	if failed == len(group) {
		d.mu.Unlock()
		return
	}
	if failed > 0 {
		active = make([]*pendingCommit, 0, len(group)-failed)
		for _, pc := range group {
			if pc.err == nil {
				active = append(active, pc)
			}
		}
	}
	// Rotation check at the leader boundary: the memtable the previous
	// round filled past its budget is sealed here, before this round's
	// sequence block and records bind to a (memtable, WAL segment) pair.
	rotated, err := d.maybeRotateLocked()
	if err != nil {
		d.mu.Unlock()
		failPending(group, err)
		return
	}

	total := 0
	for _, pc := range active {
		pc.baseSeq = d.vs.LastSeqNum() + 1 + base.SeqNum(total)
		if pc.rt != nil {
			pc.rt.Seq = pc.baseSeq
		}
		total += pc.seqCount()
	}
	endSeq := d.vs.LastSeqNum() + base.SeqNum(total)
	// Advance the *allocated* counter before releasing d.mu so the next
	// round allocates past this block; readers keep using the published
	// counter until the group lands.
	d.vs.SetLastSeqNum(endSeq)
	mem := d.mem
	mem.AcquireWriters(len(active))
	walW := d.walW
	d.mu.Unlock()

	g := &active[0].groupBuf
	g.endSeq = endSeq
	g.total = int32(len(active))
	g.done.Add(1)
	for _, pc := range active {
		pc.group = g
		pc.mem = mem
	}

	g.err = p.walStage(active, walW)

	// Publish-queue insertion happens under commitMu, so publishQ is FIFO
	// in sequence order and the ratchet can pop contiguous prefixes.
	p.pmu.Lock()
	p.publishQ = append(p.publishQ, g)
	p.pmu.Unlock()

	if rotated {
		d.notifyWork()
	}
}

// walStage encodes every member's records into one buffered WAL write and
// syncs at most once. Called with commitMu held; WAL I/O is serialized by
// commitMu alone, not d.mu.
func (p *commitPipeline) walStage(group []*pendingCommit, walW *wal.Writer) error {
	d := p.d
	p.groups++
	sampled := p.groups%opSampleInterval == 0
	start := time.Time{}
	if sampled {
		start = time.Now()
		d.trace.Emit(event.Event{Type: event.GroupCommitBegin, Time: start, Bytes: int64(len(group))})
	}
	if cap(p.scratch) < len(group) {
		p.scratch = make([][]byte, len(group))
	}
	payloads := p.scratch[:len(group)]
	// Every payload is encoded into one buffer and cut from it at once: a
	// payload cut before the buffer grew keeps reading the old array, which
	// nothing writes again.
	buf := p.walBuf[:0]
	needSync := d.opts.SyncWrites
	for i, pc := range group {
		start := len(buf)
		switch {
		case pc.rt != nil:
			buf = appendWALRangeDelete(buf, *pc.rt)
			// Range deletes can trigger eager file drops whose manifest
			// edits are synced; the tombstone must be just as durable, so
			// a group containing one always syncs.
			needSync = true
		case pc.asBatch:
			buf = appendWALBatch(buf, pc.baseSeq, pc.ops)
		default:
			op := pc.ops[0]
			buf = appendWALRecord(buf, op.kind, pc.baseSeq, op.key, op.value)
		}
		payloads[i] = buf[start:]
	}
	walBytes := int64(len(buf))
	if cap(buf) <= maxRetainedWALBuf {
		p.walBuf = buf
	}
	// Group-commit protocol: the leader serializes WAL appends with sequence
	// order under commitMu, off the engine mutex.
	err := walW.AddRecords(payloads)
	// Drop the payload references so the recycled scratch slice does not
	// pin an outgrown (or oversized, unretained) buffer until the next round.
	for i := range payloads {
		payloads[i] = nil
	}
	if err == nil {
		d.stats.WALBytes.Add(walBytes)
		d.stats.WALAppends.Add(int64(len(group)))
		d.stats.WALGroupSize.Record(int64(len(group)))
		if needSync {
			syncStart := time.Now()
			// One sync-before-ack per group under commitMu; members are
			// released only afterwards.
			err = walW.Sync()
			if err == nil {
				d.stats.WALSyncs.Add(1)
				d.stats.WALSyncLatency.Record(time.Since(syncStart).Nanoseconds())
			}
		}
	}
	if sampled {
		e := event.Event{Type: event.GroupCommitEnd, Bytes: walBytes, Dur: time.Since(start)}
		if err != nil {
			e.Err = err.Error()
		}
		d.trace.Emit(e)
	}
	return err
}

// finishCommit applies the writer's own entries, releases its memtable ref,
// drives the publication ratchet, and waits for the group to publish so the
// caller gets read-your-writes on return.
func (p *commitPipeline) finishCommit(pc *pendingCommit) error {
	g := pc.group
	if g == nil {
		// Admission-gate failure: nothing allocated, nothing to publish.
		return pc.err
	}
	if g.err == nil {
		p.applyToMem(pc)
	}
	pc.mem.ReleaseWriter()
	if g.applied.Add(1) == g.total {
		p.publishLanded()
	}
	g.done.Wait()
	return g.err
}

// applyToMem inserts the commit's entries into its captured memtable.
func (p *commitPipeline) applyToMem(pc *pendingCommit) {
	if pc.rt != nil {
		pc.mem.AddRangeTombstone(*pc.rt)
		return
	}
	d := p.d
	for i, op := range pc.ops {
		seq := pc.baseSeq + base.SeqNum(i)
		pc.mem.Add(base.MakeInternalKey(op.key, seq, op.kind), op.value)
		d.stats.BytesIngested.Add(int64(len(op.key) + len(op.value)))
	}
}

// publishLanded pops every fully-applied group at the head of publishQ,
// advancing the published sequence number and releasing group members. The
// last applier of any group calls it, so a slow head group's publication is
// always driven to completion by whichever applier finishes last.
func (p *commitPipeline) publishLanded() {
	p.pmu.Lock()
	for len(p.publishQ) > 0 {
		g := p.publishQ[0]
		if g.applied.Load() < g.total {
			break
		}
		p.publishQ = p.publishQ[1:]
		p.visible.Store(uint64(g.endSeq))
		g.done.Done()
	}
	p.pmu.Unlock()
}
