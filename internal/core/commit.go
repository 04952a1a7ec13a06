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
// at most one fsync, then applies every member's entries to the memtable
// itself, so a memtable only ever has one writer.
//
// Visibility is decoupled from allocation: d.vs.LastSeqNum() becomes the
// *allocated* counter (advanced by the leader before the WAL stage), while
// readers observe the *published* counter, commitPipeline.visible, which a
// leader advances to its group's last sequence number once the group has
// applied. Groups apply in sequence order — the leader takes applyMu before
// it releases commitMu — so readers never observe a half-applied group, and
// a batch stays atomic: its sequence block publishes in one step.
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
// qmu/applyMu) while d.mu is held shows up as a hang in the stress suites.
//
// acheron:locks order core.commitPipeline.commitMu < core.DB.mu
// acheron:locks order core.commitPipeline.commitMu < core.commitPipeline.applyMu < core.commitPipeline.qmu
// acheron:locks order core.DB.flushMu < core.commitPipeline.applyMu
type commitPipeline struct {
	d *DB

	// qmu guards the arrival queue — pendingCommits linked through next,
	// from head to the next field tail points at — and leader election.
	qmu          sync.Mutex
	head         *pendingCommit
	tail         **pendingCommit
	leaderActive bool

	// commitMu serializes leader rounds: gate, seqnum allocation and WAL
	// append+sync. Acquired before d.mu.
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

	// applyMu is held by the one leader applying its group to the
	// memtable. A leader takes it under commitMu, so groups apply and
	// publish in sequence order; flushOne takes it once to wait out the
	// last group bound to a sealed memtable. visible is the published
	// sequence number readers use, stored only under applyMu.
	applyMu sync.Mutex
	visible atomic.Uint64
}

// commitSignal is what a parked writer receives on its notify channel.
type commitSignal uint8

const (
	// sigLead promotes the writer to leader of the next round.
	sigLead commitSignal = iota
	// sigDone tells the writer its commit is finished: applied and
	// published, or failed with pendingCommit.err.
	sigDone
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
	// one signal sent per commit, and received before commit returns). A
	// writer that leads immediately never parks. It outlives the commit:
	// the record's next writer reuses it.
	notify chan commitSignal

	// next links the arrival queue and, once a leader drains it, the
	// round's group. Guarded by qmu while queued, then the leader's.
	next *pendingCommit

	// promoted marks the queue head holding the leadership baton: sigLead
	// has been sent to its notify channel. Guarded by qmu; withdraw must
	// know whether the writer it removes has to pass the baton on.
	promoted bool

	// Filled by the leader before sigDone. err is the admission gate's or
	// the WAL stage's failure; a failed commit was not applied.
	baseSeq base.SeqNum
	err     error
}

// pendingCommits recycles commit records, so a commit allocates none. A
// record goes back once its commit returns: by then no leader touches it,
// as a leader reads a member's next before it signals the member, and the
// stall gate unlinks a member before it releases it.
var pendingCommits = sync.Pool{New: func() any { return new(pendingCommit) }}

// newPendingCommit returns an empty commit record for a writer with ctx.
func newPendingCommit(ctx context.Context) *pendingCommit {
	pc := pendingCommits.Get().(*pendingCommit)
	pc.ctx = ctx
	return pc
}

// free clears the record, keeping only its channel, and recycles it.
func (pc *pendingCommit) free() {
	*pc = pendingCommit{notify: pc.notify}
	pendingCommits.Put(pc)
}

// seqCount returns how many sequence numbers the commit consumes.
func (pc *pendingCommit) seqCount() int {
	if pc.rt != nil {
		return 1
	}
	return len(pc.ops)
}

func newCommitPipeline(d *DB) *commitPipeline {
	p := &commitPipeline{d: d}
	p.tail = &p.head
	return p
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
// applied. pc, from newPendingCommit, is recycled before commit returns.
func (p *commitPipeline) commit(pc *pendingCommit) error {
	err := p.run(pc)
	pc.free()
	return err
}

func (p *commitPipeline) run(pc *pendingCommit) error {
	if p.enqueue(pc) {
		p.leadRound(pc)
		return pc.err
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
	return pc.err
}

// withdraw removes a cancelled follower from the arrival queue. It returns
// false when pc is no longer queued — the current leader's drain already
// owns it — and the caller must park for the pending signal. A promoted
// writer (it holds the leadership baton) drains its own sigLead and passes
// the baton on before leaving, so leadership is never stranded.
func (p *commitPipeline) withdraw(pc *pendingCommit) bool {
	p.qmu.Lock()
	defer p.qmu.Unlock()
	link := &p.head
	for *link != pc {
		if *link == nil {
			return false
		}
		link = &(*link).next
	}
	*link = pc.next
	if p.tail == &pc.next {
		p.tail = link
	}
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
	*p.tail = pc
	p.tail = &pc.next
	if !p.leaderActive {
		p.leaderActive = true
		return true
	}
	if pc.notify == nil {
		pc.notify = make(chan commitSignal, 1)
	}
	return false
}

// leadRound drains the queue and processes it as one group. It hands
// leadership to the next arrival, if any, as soon as commitMu is free —
// that leader's gate and WAL stage overlap this group's apply — then
// applies and publishes the group and signals the followers.
func (p *commitPipeline) leadRound(own *pendingCommit) {
	p.commitMu.Lock()
	p.qmu.Lock()
	group := p.head
	p.head, p.tail = nil, &p.head
	p.qmu.Unlock()

	group, mem, endSeq := p.processGroup(group, own)
	if mem == nil {
		// The gate failed the group: nothing to apply or publish.
		p.commitMu.Unlock()
		p.handoff()
	} else {
		p.applyMu.Lock()
		p.commitMu.Unlock()
		p.handoff()
		for pc := group; pc != nil; pc = pc.next {
			if pc.err == nil {
				p.apply(pc, mem)
			}
		}
		// Also after a WAL failure, so readers pass the allocated hole
		// (allocated sequence numbers are never reused).
		p.visible.Store(uint64(endSeq))
		p.applyMu.Unlock()
	}
	for pc := group; pc != nil; {
		// A signalled follower returns at once: read its link first.
		next := pc.next
		if pc != own {
			pc.notify <- sigDone
		}
		pc = next
	}
}

// handoff passes the leadership baton on; see handoffLocked.
func (p *commitPipeline) handoff() {
	p.qmu.Lock()
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
	if p.head != nil {
		p.head.promoted = true
		p.head.notify <- sigLead
		return
	}
	p.leaderActive = false
}

// failAll fails every member of the group with err.
func failAll(group *pendingCommit, err error) {
	for pc := group; pc != nil; pc = pc.next {
		pc.err = err
	}
}

// processGroup runs the admission gate, allocates the group's sequence
// block, and performs the WAL stage. Called with commitMu held. Members the
// stall gate expired (context deadline/cancel while stalled) were signalled
// there and are dropped from the round; processGroup returns the rest. mem
// is the memtable the group applies to and endSeq its last sequence number;
// mem is nil when the group failed the gate, having allocated nothing.
func (p *commitPipeline) processGroup(group, own *pendingCommit) (_ *pendingCommit, mem *memtable.MemTable, endSeq base.SeqNum) {
	d := p.d
	d.mu.Lock()
	err := ErrClosed
	if !d.closed {
		// Backpressure applies to the whole group — including range
		// deletes, which previously bypassed the stall gate entirely and
		// could grow the flush backlog without bound.
		if err = d.backgroundErrLocked(); err == nil {
			err = d.stallWritesLocked(&group, own)
		}
	}
	// Unlink the leader if the stall gate failed it; the followers it
	// failed it unlinked and signalled already.
	for link := &group; *link != nil; {
		if (*link).err != nil {
			*link = (*link).next
		} else {
			link = &(*link).next
		}
	}
	// Rotation check at the leader boundary: the memtable the previous
	// round filled past its budget is sealed here, before this round's
	// sequence block and records bind to a (memtable, WAL segment) pair.
	rotated := false
	if err == nil && group != nil {
		rotated, err = d.maybeRotateLocked()
	}
	if err != nil || group == nil {
		d.mu.Unlock()
		failAll(group, err)
		return group, nil, 0
	}

	total, members := 0, 0
	for pc := group; pc != nil; pc = pc.next {
		pc.baseSeq = d.vs.LastSeqNum() + 1 + base.SeqNum(total)
		if pc.rt != nil {
			pc.rt.Seq = pc.baseSeq
		}
		total += pc.seqCount()
		members++
	}
	endSeq = d.vs.LastSeqNum() + base.SeqNum(total)
	// Advance the *allocated* counter before releasing d.mu so the next
	// round allocates past this block; readers keep using the published
	// counter until the group lands.
	d.vs.SetLastSeqNum(endSeq)
	mem, walW := d.mem, d.walW
	d.mu.Unlock()

	// A WAL-stage failure fails every member: nothing of theirs is
	// applied, but the group still publishes endSeq.
	if err := p.walStage(group, members, walW); err != nil {
		failAll(group, err)
	}
	if rotated {
		d.notifyWork()
	}
	return group, mem, endSeq
}

// walStage encodes every member's records into one buffered WAL write and
// syncs at most once. Called with commitMu held; WAL I/O is serialized by
// commitMu alone, not d.mu.
func (p *commitPipeline) walStage(group *pendingCommit, members int, walW *wal.Writer) error {
	d := p.d
	p.groups++
	sampled := p.groups%opSampleInterval == 0
	start := time.Time{}
	if sampled {
		start = time.Now()
		d.trace.Emit(event.Event{Type: event.GroupCommitBegin, Time: start, Bytes: int64(members)})
	}
	payloads := p.scratch[:0]
	// Every payload is encoded into one buffer and cut from it at once: a
	// payload cut before the buffer grew keeps reading the old array, which
	// nothing writes again.
	buf := p.walBuf[:0]
	needSync := d.opts.SyncWrites
	for pc := group; pc != nil; pc = pc.next {
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
		payloads = append(payloads, buf[start:])
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
	clear(payloads)
	p.scratch = payloads[:0]
	if err == nil {
		d.stats.WALBytes.Add(walBytes)
		d.stats.WALAppends.Add(int64(members))
		d.stats.WALGroupSize.Record(int64(members))
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

// apply inserts the commit's entries into the group's memtable. Called
// with applyMu held: the memtable's one writer.
func (p *commitPipeline) apply(pc *pendingCommit, mem *memtable.MemTable) {
	if pc.rt != nil {
		mem.AddRangeTombstone(*pc.rt)
		return
	}
	d := p.d
	for i, op := range pc.ops {
		seq := pc.baseSeq + base.SeqNum(i)
		mem.Add(base.MakeInternalKey(op.key, seq, op.kind), op.value)
		d.stats.BytesIngested.Add(int64(len(op.key) + len(op.value)))
	}
}
