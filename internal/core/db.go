package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/event"
	"repro/internal/manifest"
	"repro/internal/memtable"
	"repro/internal/metrics"
	"repro/internal/readview"
	"repro/internal/sstable"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// ErrNotFound is returned by Get when the key does not exist (or has been
// deleted).
var ErrNotFound = errors.New("acheron: not found")

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("acheron: db closed")

// maxUserKeySentinel is an upper bound on user keys, used to widen the
// bounds of tables that carry only range tombstones (which logically cover
// the whole key space). User keys must sort strictly below it.
var maxUserKeySentinel = func() []byte {
	b := make([]byte, 48)
	for i := range b {
		b[i] = 0xff
	}
	return b
}()

type immEntry struct {
	mem    *memtable.MemTable
	logNum base.FileNum
}

// DB is the Acheron storage engine instance.
type DB struct {
	opts    Options
	dirname string
	stats   Stats
	cache   *tableCache
	// readViews caches one REMIX-style sorted view per immutable version,
	// keyed by *manifest.Version identity. A view is built once scans of
	// its version have earned it (newIter), and the cache is invalidated
	// (lock-free, after the install completes) whenever installEdit commits
	// a new version.
	readViews *readview.Cache
	// trace buffers structured engine events (op begin/end, stalls, job
	// lifecycle, file lifecycle, checkpoints) and forwards them to
	// Options.EventListener.
	trace *event.Tracer
	// opSampleN drives hot-path instrumentation sampling: one in
	// opSampleInterval operations records latency and trace events.
	opSampleN atomic.Uint64
	// registry names every metric for Prometheus/JSON exposition; built
	// lazily by DB.Registry.
	registryOnce sync.Once
	registry     *metrics.Registry

	// commit is the group-commit write pipeline: it owns commitMu (ordered
	// before d.mu), the commit queue, and the published sequence number
	// readers consult via visibleSeqNum.
	commit *commitPipeline

	// admit is the token-bucket admission gate in front of the foreground
	// paths; nil when Options.Admission is disabled (a nil controller
	// admits everything). Admission runs before any engine lock is taken —
	// its internal mutex is a leaf — and is closed first on shutdown so
	// queued admissions fail fast.
	admit *admission.Controller

	// mems makes every memtable: one whose last reference goes hands its
	// arena to the next (DESIGN "The write path's buffers"). writers lends
	// the flushes and compactions their sstable writers.
	mems    *memtable.Pool
	writers *sstable.WriterPool

	mu        sync.Mutex // guards everything below
	vs        *manifest.VersionSet
	mem       *memtable.MemTable // holds the DB's reference, as do imm's
	memLog    base.FileNum
	walW      *wal.Writer
	imm       []immEntry    // oldest first
	snapshots []base.SeqNum // ascending, duplicates allowed
	closed    bool
	// bgErr is the sticky background error. Once set the DB is read-only:
	// writes fail with ErrBackgroundError, stalled writers are released
	// with it, executors stop, and reads keep serving committed data. It
	// never clears; recovery is reopening the DB.
	bgErr error
	// stallCond (condition over d.mu) wakes writers stalled on
	// backpressure: commits wait while immutables or L0 runs pile past
	// their limits, and flush pops / compaction commits broadcast.
	stallCond *sync.Cond

	// Maintenance callers — executors, MaintenanceStep, Flush, CompactAll —
	// exclude each other per resource: flushMu for the flush queue,
	// pickMu+inflight claims for compactions.
	//
	// flushMu serializes flushOne callers (manual Flush, the flush
	// executor, MaintenanceStep) so two cannot pop the same immutable.
	flushMu sync.Mutex
	// pickMu makes pick+claim atomic across compaction executors and guards
	// inflight: pick, claim and release.
	pickMu sync.Mutex
	// policy is the compaction layout (leveled, size-tiered, or
	// lazy-leveling), built once at Open from Options.Compaction. It is
	// immutable after construction — Pick reads only its own Options copy
	// and the version/claims passed in — so no lock guards this field.
	policy *compaction.Layout
	// inflight holds the claim rectangles of running maintenance jobs;
	// pickers exclude them.
	inflight compaction.InFlightSet
	// sched counts the flush steps and claimed jobs in flight (what
	// WaitIdle and CompactAll wait out) and records per-job observability.
	sched *scheduler

	flushCh chan struct{} // wakeup of the pool's first executor (the one that flushes)
	compCh  chan struct{} // wakeup of the compaction executors
	closeCh chan struct{}
	closing atomic.Bool
	wg      sync.WaitGroup
}

// Open opens (creating if necessary) a store in dirname.
func Open(dirname string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if opts.PagesPerTile > 1 && opts.DeleteKeyFunc == nil {
		return nil, errors.New("acheron: PagesPerTile > 1 requires DeleteKeyFunc")
	}
	fs := opts.FS
	if fs.Exists(manifest.MakeFilename(dirname, manifest.FileTypeShards, 0)) {
		return nil, fmt.Errorf("acheron: %s is a sharded store; open it with shard.Open (acheron.ShardedOpen)", dirname)
	}
	if err := fs.MkdirAll(dirname); err != nil {
		return nil, err
	}

	var (
		vs  *manifest.VersionSet
		err error
	)
	if fs.Exists(manifest.MakeFilename(dirname, manifest.FileTypeCurrent, 0)) {
		vs, err = manifest.Load(fs, dirname)
	} else {
		vs, err = manifest.Create(fs, dirname)
	}
	if err != nil {
		return nil, err
	}

	mems := memtable.NewPool(opts.MemTableBytes)
	writers := sstable.NewWriterPool(sstable.WriterOptions{
		BloomBitsPerKey: opts.BloomBitsPerKey,
		PagesPerTile:    opts.PagesPerTile,
		DeleteKeyFunc:   opts.DeleteKeyFunc,
	})
	d := &DB{
		opts:     opts,
		dirname:  dirname,
		cache:    newTableCache(fs, dirname, opts.BlockCacheBytes),
		trace:    event.NewTracer(event.DefaultRingSize, opts.EventListener),
		mems:     mems,
		writers:  writers,
		vs:       vs,
		mem:      mems.New(),
		inflight: compaction.InFlightSet{},
		policy:   opts.Compaction.NewLayout(),
		sched:    newScheduler(),
		flushCh:  make(chan struct{}, 1),
		compCh:   make(chan struct{}, 1),
		closeCh:  make(chan struct{}),
	}
	d.stallCond = sync.NewCond(&d.mu)
	if !opts.DisableReadViews {
		d.readViews = readview.NewCache(4, readview.CacheStats{
			Builds:        &d.stats.IterViewBuilds,
			Hits:          &d.stats.IterViewHits,
			Deferred:      &d.stats.IterViewDeferred,
			Invalidations: &d.stats.IterViewInvalidations,
		})
	}
	d.commit = newCommitPipeline(d)
	if opts.Admission.Enabled() {
		cfg := opts.Admission
		if cfg.Pressure == nil {
			// Feed the gate live stall pressure so it sheds load before
			// writers pile into the stall condition.
			cfg.Pressure = d.writePressure
		}
		d.admit = admission.NewController(cfg)
	}

	// The manifest records only how many range tombstones a file carries;
	// read them back so the recovered version serves them like any other.
	err = vs.LoadRangeTombstones(func(fn base.FileNum) ([]base.RangeTombstone, error) {
		r, err := d.cache.get(fn)
		if err != nil {
			return nil, err
		}
		return r.RangeTombstones(), nil
	})
	if err == nil {
		err = d.recoverAndClean()
	}
	if err != nil {
		vfs.BestEffortClose(vs)
		return nil, err
	}
	// Everything recovered is fully applied; published == allocated.
	d.commit.visible.Store(uint64(d.vs.LastSeqNum()))
	// The live gauge moves by increments; it starts at what the recovered
	// tree (replayed WAL included) holds.
	var live uint64
	d.vs.Current().AllFiles(func(_ int, f *manifest.FileMetadata) { live += f.NumDeletes })
	d.stats.LiveTombstones.Set(int64(live))
	d.stats.SetPersistenceDeadline(opts.Compaction.DPT)

	if !opts.DisableAutoMaintenance {
		d.startExecutors(opts.tuning.executors)
	}
	return d, nil
}

// recoverAndClean replays WAL segments, flushes recovered data, removes
// obsolete files, and opens a fresh WAL.
func (d *DB) recoverAndClean() error {
	fs := d.opts.FS
	names, err := fs.List(d.dirname)
	if err != nil {
		return err
	}
	live := make(map[base.FileNum]bool)
	d.vs.Current().AllFiles(func(_ int, f *manifest.FileMetadata) { live[f.FileNum] = true })

	var logNums []base.FileNum
	for _, name := range names {
		t, fn, ok := manifest.ParseFilename(name)
		if !ok {
			continue
		}
		switch t {
		case manifest.FileTypeTable:
			if !live[fn] {
				_ = fs.Remove(manifest.MakeFilename(d.dirname, t, fn))
			}
		case manifest.FileTypeLog:
			if fn >= d.vs.LogNum() {
				logNums = append(logNums, fn)
			} else {
				_ = fs.Remove(manifest.MakeFilename(d.dirname, t, fn))
			}
		}
	}
	sort.Slice(logNums, func(i, j int) bool { return logNums[i] < logNums[j] })

	// Replay surviving logs into a recovery memtable.
	rec := d.mems.New()
	defer rec.Unref()
	maxSeq := d.vs.LastSeqNum()
	for _, fn := range logNums {
		logPath := manifest.MakeFilename(d.dirname, manifest.FileTypeLog, fn)
		f, err := fs.Open(logPath)
		if err != nil {
			return err
		}
		rdr, err := wal.NewReader(f)
		if err != nil {
			vfs.BestEffortClose(f)
			return err
		}
		for {
			payload, err := rdr.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				vfs.BestEffortClose(f)
				// Mid-log corruption comes back as a wal.CorruptionError
				// carrying the byte offset; attach the segment path so the
				// operator knows which file to inspect.
				return fmt.Errorf("acheron: wal replay: %w", wal.Locate(err, logPath))
			}
			seq, err := applyWALRecord(rec, payload)
			if err != nil {
				vfs.BestEffortClose(f)
				return err
			}
			if seq > maxSeq {
				maxSeq = seq
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	d.vs.SetLastSeqNum(maxSeq)

	// Open a fresh WAL for new writes.
	newLog := d.vs.AllocFileNum()
	f, err := fs.Create(manifest.MakeFilename(d.dirname, manifest.FileTypeLog, newLog))
	if err != nil {
		return err
	}
	d.walW = wal.NewWriter(f)
	d.memLog = newLog

	// Flush recovered data immediately so the old logs can go, then
	// persist the new LogNum either way.
	edit := &manifest.VersionEdit{LogNum: newLog}
	if !rec.Empty() {
		fn, meta, err := d.writeMemTable(rec)
		if err != nil {
			return err
		}
		edit.Added = []manifest.NewFileEntry{{Level: 0, RunID: d.vs.AllocRunID(), Meta: fileMetaFrom(fn, meta)}}
	}
	if err := d.installEdit(edit, nil, nil); err != nil {
		return err
	}
	for _, a := range edit.Added {
		d.stats.Flushes.Add(1)
		d.stats.BytesFlushed.Add(int64(a.Meta.Size))
	}
	for _, fn := range logNums {
		_ = fs.Remove(manifest.MakeFilename(d.dirname, manifest.FileTypeLog, fn))
	}
	return nil
}

// Close stops background work and releases resources. Buffered writes that
// were not WAL-synced are flushed to a table first so nothing acknowledged
// is lost.
func (d *DB) Close() error {
	if d.closing.Swap(true) {
		return ErrClosed
	}
	// Release writers queued in the admission gate first: Close must stay
	// bounded even when the gate is saturated with waiters.
	d.admit.Close()
	// Wake writers stalled on backpressure so they observe the shutdown
	// instead of waiting on maintenance that is about to stop. The
	// broadcast must hold d.mu (see wakeStalledWriters): a writer that
	// checked d.closing before the flag flipped is then guaranteed to be
	// parked in Wait already, not between its check and the Wait.
	d.wakeStalledWriters()
	close(d.closeCh)
	d.wg.Wait()

	// Flush outstanding memtables so writes that were never synced survive
	// reopen and recovery finds nothing to replay. With a sticky background
	// error the flush is known to fail (and the data it would persist is
	// already durable in the WAL for synced writes); skip it so Close
	// completes cleanly in read-only mode. A flush error here must not abort
	// the shutdown: record it, finish releasing resources, and return it at
	// the end.
	var err error
	if d.BackgroundError() == nil {
		if ferr := d.Flush(); ferr != nil && !errors.Is(ferr, ErrClosed) {
			err = ferr
		}
	}

	// Hold the pipeline's commitMu across the final close: no leader round
	// can then be between capturing d.walW and appending to it, so setting
	// the closed flag and closing the WAL is atomic w.r.t. commit groups.
	d.commit.commitMu.Lock()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.commit.commitMu.Unlock()
		return ErrClosed
	}
	d.closed = true
	if d.walW != nil {
		//lint:ignore lockheld shutdown path: commitMu+d.mu exclude in-flight leader rounds, so no writer can race the close
		if werr := d.walW.Close(); err == nil {
			err = werr
		}
		d.walW = nil
	}
	d.mu.Unlock()
	d.commit.commitMu.Unlock()
	// The version set closes outside d.mu: its Close takes the commit
	// mutex, which flush commits hold while acquiring d.mu for the version
	// install — closing under d.mu would deadlock against a racing flush.
	if cerr := d.vs.Close(); err == nil {
		err = cerr
	}
	d.cache.close()
	return err
}

// Stats returns the engine's live statistics.
func (d *DB) Stats() *Stats { return &d.stats }

// Clock returns the engine's time source.
func (d *DB) Clock() base.Clock { return d.opts.Clock }

// ---------------------------------------------------------------------------
// Write path

// maxRetainedWALBuf bounds the encode buffer the commit pipeline keeps
// between rounds, so one huge batch does not pin its size for good.
const maxRetainedWALBuf = 1 << 20

// appendWALRecord appends a single-op record to b. walRecord kinds reuse
// base.Kind values.
func appendWALRecord(b []byte, kind base.Kind, seq base.SeqNum, key, value []byte) []byte {
	b = append(b, byte(kind))
	b = binary.AppendUvarint(b, uint64(seq))
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.AppendUvarint(b, uint64(len(value)))
	return append(b, value...)
}

func appendWALRangeDelete(b []byte, rt base.RangeTombstone) []byte {
	b = append(b, byte(base.KindRangeDelete))
	return base.EncodeRangeTombstone(b, rt)
}

// applyWALRecord replays one record into m, returning its (highest)
// sequence number.
func applyWALRecord(m *memtable.MemTable, payload []byte) (base.SeqNum, error) {
	if len(payload) < 1 {
		return 0, errors.New("acheron: empty WAL record")
	}
	if payload[0] == walBatchTag {
		return applyWALBatch(m, payload)
	}
	kind := base.Kind(payload[0])
	rest := payload[1:]
	if kind == base.KindRangeDelete {
		rt, _, ok := base.DecodeRangeTombstone(rest)
		if !ok {
			return 0, errors.New("acheron: corrupt range-delete WAL record")
		}
		m.AddRangeTombstone(rt)
		return rt.Seq, nil
	}
	seqU, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, errors.New("acheron: corrupt WAL record (seq)")
	}
	rest = rest[n:]
	kl, n := binary.Uvarint(rest)
	if n <= 0 || int(kl) > len(rest)-n {
		return 0, errors.New("acheron: corrupt WAL record (key)")
	}
	key := rest[n : n+int(kl)]
	rest = rest[n+int(kl):]
	vl, n := binary.Uvarint(rest)
	if n <= 0 || int(vl) > len(rest)-n {
		return 0, errors.New("acheron: corrupt WAL record (value)")
	}
	value := rest[n : n+int(vl)]
	seq := base.SeqNum(seqU)
	m.Add(base.MakeInternalKey(key, seq, kind), value)
	return seq, nil
}

// Put inserts or updates a key.
func (d *DB) Put(key, value []byte) error {
	return d.PutCtx(context.Background(), key, value)
}

// Delete removes a key by inserting a point tombstone stamped with the
// current clock reading; FADE guarantees it persists within the DPT.
func (d *DB) Delete(key []byte) error {
	return d.DeleteCtx(context.Background(), key)
}

// apply commits one record, recording its latency and begin/end trace
// events around the raw commit protocol for sampled operations.
func (d *DB) apply(ctx context.Context, op string, kind base.Kind, key, value []byte) error {
	if !d.opSampled() {
		return d.commitRecord(ctx, kind, key, value)
	}
	start := time.Now()
	err := d.commitRecord(ctx, kind, key, value)
	dur := time.Since(start)
	d.stats.PutLatency.Record(dur.Nanoseconds())
	d.traceOp(op, start, dur, err)
	return err
}

// commitRecord commits one point entry through the group-commit pipeline.
// The key and value are not copied until the memtable apply, which happens
// before commit returns, so callers may reuse their buffers afterwards.
func (d *DB) commitRecord(ctx context.Context, kind base.Kind, key, value []byte) error {
	if err := d.admitWrite(ctx); err != nil {
		return err
	}
	pc := newPendingCommit(ctx)
	pc.opsBuf[0] = batchOp{kind: kind, key: key, value: value}
	pc.ops = pc.opsBuf[:1]
	return d.commit.commit(pc)
}

// visibleSeqNum returns the sequence number readers observe: the newest
// fully-published commit group. It trails d.vs.LastSeqNum(), the allocated
// counter, by at most the commits currently in flight.
func (d *DB) visibleSeqNum() base.SeqNum { return d.commit.visibleSeqNum() }

// DeleteSecondaryRange logically deletes every record whose secondary
// delete key lies in [lo, hi). Requires Options.DeleteKeyFunc. The physical
// erase path depends on Options.EagerRangeDeletes.
func (d *DB) DeleteSecondaryRange(lo, hi base.DeleteKey) error {
	return d.DeleteSecondaryRangeCtx(context.Background(), lo, hi)
}

func (d *DB) commitRangeDelete(ctx context.Context, lo, hi base.DeleteKey) error {
	if d.opts.DeleteKeyFunc == nil {
		return errors.New("acheron: DeleteSecondaryRange requires DeleteKeyFunc")
	}
	if lo >= hi {
		return fmt.Errorf("acheron: empty delete-key range [%d, %d)", lo, hi)
	}
	if err := d.admitWrite(ctx); err != nil {
		return err
	}
	// The tombstone's sequence number is stamped by the pipeline leader;
	// the group containing it always syncs the WAL (see walStage). Routing
	// range deletes through the pipeline also runs them through the stall
	// gate, which the old path skipped — they could previously grow the
	// flush backlog without any backpressure.
	rt := base.RangeTombstone{Lo: lo, Hi: hi, CreatedAt: d.opts.Clock.Now()}
	pc := newPendingCommit(ctx)
	pc.rt = &rt
	if err := d.commit.commit(pc); err != nil {
		return err
	}
	d.stats.RangeDeletesIssued.Add(1)
	d.notifyWork()
	return nil
}

// wakeStalledWriters broadcasts the stall condition while holding d.mu.
// The mutex is what closes the lost-wakeup window: stallWritesLocked
// evaluates its condition and parks under d.mu, so a broadcaster that also
// holds d.mu is guaranteed to find every stalled writer either before its
// condition check (it will observe the new state) or already parked in
// Wait (it will receive the broadcast) — never in between. Callers must
// not hold d.mu.
func (d *DB) wakeStalledWriters() {
	d.mu.Lock()
	d.stallCond.Broadcast()
	d.mu.Unlock()
}

// stallCause indexes the per-cause stall metrics: which resource's limit
// engaged the backpressure.
const (
	stallCauseImm = iota // immutable-memtable backlog (tuning.maxImm)
	stallCauseL0         // L0 run count (tuning.l0StallRuns)
	numStallCauses
)

// stallCauseNames labels the per-cause stall metrics in the registry.
var stallCauseNames = [numStallCauses]string{"imm-memtables", "l0-runs"}

// stallWritesLocked blocks the commit path while the flush/compaction
// backlog exceeds its limits. Backpressure only engages with auto
// maintenance: a caller driving MaintenanceStep manually from the writing
// goroutine must never be made to wait for work only it can perform.
//
// The wait is group- and deadline-aware. Each cancellable member arms a
// context wake-up that re-broadcasts the stall condition through
// wakeStalledWriters — broadcast under d.mu, so the lost-wakeup discipline
// is untouched — and on every wake-up the gate fails members whose context
// has fired with an error wrapping their context error. A failed follower
// is unlinked from the group and signalled immediately (it must not wait
// out a stall it has timed out of, and it recycles its record once woken);
// the round then proceeds with the survivors. If the leader itself
// expires while live members remain it cannot abandon the round — their
// state lives on its stack — so the gate releases the round past the stall
// once (a bounded overshoot of one group) instead of pinning the expired
// caller for the stall's full duration; the backpressure re-engages on the
// next round.
//
// Called with d.mu held; may release and reacquire it. group points at the
// head of the round's group.
func (d *DB) stallWritesLocked(group **pendingCommit, own *pendingCommit) error {
	if d.opts.DisableAutoMaintenance {
		return nil
	}
	var (
		stallStart time.Time
		stops      []func() bool
		causes     [numStallCauses]bool
		stalled    bool
		err        error
	)
	for {
		if d.closed || d.closing.Load() {
			err = ErrClosed
			break
		}
		// A sticky background error means the maintenance this writer is
		// waiting for will never happen; release it with the error rather
		// than parking it until Close.
		if err = d.backgroundErrLocked(); err != nil {
			break
		}
		immFull := d.opts.tuning.maxImm > 0 && len(d.imm) >= d.opts.tuning.maxImm
		l0Full := d.opts.tuning.l0StallRuns > 0 && len(d.vs.Current().Levels[0]) >= d.opts.tuning.l0StallRuns
		if !immFull && !l0Full {
			break
		}
		if !stalled {
			stalled = true
			d.stats.WriteStalls.Add(1)
			stallStart = time.Now()
			d.trace.Emit(event.Event{Type: event.StallBegin, Time: stallStart})
			for pc := *group; pc != nil; pc = pc.next {
				if stop := armCtxWake(pc.ctx, d.wakeStalledWriters); stop != nil {
					stops = append(stops, stop)
				}
			}
		}
		for c, full := range [numStallCauses]bool{immFull, l0Full} {
			if full && !causes[c] {
				causes[c] = true
				d.stats.StallsByCause[c].Add(1)
			}
		}
		// Fail members whose context fired. A member stays failed even if
		// the stall then clears: its deadline elapsed while the engine held
		// it, and the caller has likely moved on.
		live := 0
		for link := group; *link != nil; {
			pc := *link
			cerr := pc.ctx.Err()
			if cerr == nil {
				live++
				link = &pc.next
				continue
			}
			waited := time.Since(stallStart)
			pc.err = fmt.Errorf("acheron: write stalled %v on backpressure: %w",
				waited.Round(time.Millisecond), cerr)
			d.stats.StallTimeouts.Add(1)
			d.trace.Emit(event.Event{Type: event.StallTimeout, Dur: waited, Err: pc.err.Error()})
			if pc == own {
				// processGroup drops the leader from the round.
				link = &pc.next
				continue
			}
			// Release the follower now, unlinked first: once woken it
			// recycles its record.
			*link = pc.next
			pc.notify <- sigDone
		}
		if live == 0 {
			// Every member expired; the round is empty and aborts.
			break
		}
		if own.err != nil {
			// Expired leader with live members: release the round past the
			// stall (see the function comment).
			break
		}
		d.notifyWork()
		start := time.Now()
		d.stallCond.Wait()
		d.stats.WriteStallNanos.Add(time.Since(start).Nanoseconds())
	}
	if stalled {
		for _, stop := range stops {
			stop()
		}
		total := time.Since(stallStart)
		for c := range causes {
			if causes[c] {
				d.stats.StallWaitByCause[c].Record(total.Nanoseconds())
			}
		}
		e := event.Event{Type: event.StallEnd, Dur: total}
		if err != nil {
			e.Err = err.Error()
		}
		d.trace.Emit(e)
	}
	return err
}

// maybeRotateLocked rotates the memtable when it exceeds its budget.
// Called with the pipeline's commitMu and d.mu held.
func (d *DB) maybeRotateLocked() (bool, error) {
	if d.mem.ApproximateBytes() < d.opts.MemTableBytes {
		return false, nil
	}
	return true, d.rotateLocked()
}

// rotateLocked unconditionally seals the current memtable. Callers must
// hold the pipeline's commitMu as well as d.mu: commit groups capture the
// (memtable, WAL segment) pair under d.mu and append to the WAL after
// releasing it, relying on commitMu to keep the pair stable meanwhile.
func (d *DB) rotateLocked() error {
	newLog := d.vs.AllocFileNum()
	f, err := d.opts.FS.Create(manifest.MakeFilename(d.dirname, manifest.FileTypeLog, newLog))
	if err != nil {
		return err
	}
	newW := wal.NewWriter(f)
	if err := d.walW.Close(); err != nil {
		// The old segment's tail is in doubt; abandon the rotation and
		// surface the error. The fresh segment was never linked to any
		// state, so close and unlink it rather than orphaning the file and
		// its number.
		vfs.BestEffortClose(newW)
		_ = d.opts.FS.Remove(manifest.MakeFilename(d.dirname, manifest.FileTypeLog, newLog))
		return err
	}
	d.imm = append(d.imm, immEntry{mem: d.mem, logNum: d.memLog})
	d.mem = d.mems.New()
	d.memLog = newLog
	d.walW = newW
	d.stats.FlushQueueDepth.Set(int64(len(d.imm)))
	return nil
}

// notifyWork nudges whichever maintenance goroutines exist. The sends are
// non-blocking: a full wakeup channel already has a pending wakeup.
func (d *DB) notifyWork() {
	if d.opts.DisableAutoMaintenance {
		return
	}
	for _, ch := range [...]chan struct{}{d.flushCh, d.compCh} {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// ---------------------------------------------------------------------------
// Version install

// installEdit is the one way the tree changes: every maintenance job (and
// recovery's flush) produces its files, describes the change as an edit, and
// commits it here. atCommit, if non-nil, finishes the edit at the commit
// point against the version current then (compactions resolve their output
// run id there); underMu, if non-nil, runs under d.mu in the critical section
// that publishes the new version (a flush pops its memtable there, so readers
// never see the flushed table and its memtable at once, nor neither). No
// engine lock is held across the manifest append+fsync.
//
// Everything after the commit is derived from the edit (DESIGN.md § Version
// install). On failure the new files never joined a version and are unlinked,
// unannounced — unless the manifest may still replay the edit
// (manifest.ErrEditInDoubt): then they stay for the next Open to adopt or
// sweep. On success, in order: publish + wake stalled writers; drop cached
// read views; notify executors; account and announce each new file
// (FileCreate, only now that it is durable); unlink the replaced files no
// reader's version holds (the rest die with their last reader's unref). A
// file both Deleted and Added (a trivial move) is neither new nor replaced:
// the new version's reference keeps it.
func (d *DB) installEdit(edit *manifest.VersionEdit, atCommit func(cur *manifest.Version), underMu func()) error {
	deleted := func(fn base.FileNum) bool {
		return slices.ContainsFunc(edit.Deleted, func(e manifest.DeletedFileEntry) bool { return e.FileNum == fn })
	}
	replaced := len(edit.Deleted)
	for _, a := range edit.Added {
		if deleted(a.Meta.FileNum) {
			replaced--
		}
	}
	dead, err := d.vs.Commit(edit, atCommit, func(publish func()) {
		// Counted before the install so the gauge never reads below the
		// files on disk: a reader may unlink one the moment it is replaced.
		d.stats.ZombieTables.Add(int64(replaced))
		d.mu.Lock()
		publish()
		if underMu != nil {
			underMu()
		}
		d.stallCond.Broadcast()
		d.mu.Unlock()
	})
	if err != nil {
		for _, a := range edit.Added {
			if !deleted(a.Meta.FileNum) && !errors.Is(err, manifest.ErrEditInDoubt) {
				d.removeTable(a.Meta.FileNum, false)
			}
		}
		return err
	}
	d.invalidateReadViews()
	d.notifyWork()
	for _, a := range edit.Added {
		if !deleted(a.Meta.FileNum) {
			d.stats.FilesCreated.Add(1)
			d.trace.Emit(event.Event{
				Type: event.FileCreate, File: uint64(a.Meta.FileNum),
				Level: a.Level, Bytes: int64(a.Meta.Size),
			})
		}
	}
	d.removeDead(dead)
	return nil
}

// ---------------------------------------------------------------------------
// Snapshots

// Snapshot pins a point-in-time view of the store. Compactions retain data
// visible to open snapshots; Release it promptly.
type Snapshot struct {
	db  *DB
	seq base.SeqNum
	// released is set, under db.mu, by the first Release. d.snapshots may
	// hold seq more than once, so a second removal would drop another
	// snapshot's pin.
	released bool
}

// NewSnapshot captures the current state. The snapshot pins the published
// sequence number, so it never straddles a half-applied commit group.
func (d *DB) NewSnapshot() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	seq := d.visibleSeqNum()
	i := sort.Search(len(d.snapshots), func(i int) bool { return d.snapshots[i] >= seq })
	d.snapshots = append(d.snapshots, 0)
	copy(d.snapshots[i+1:], d.snapshots[i:])
	d.snapshots[i] = seq
	return &Snapshot{db: d, seq: seq}
}

// Seq returns the snapshot's sequence number.
func (s *Snapshot) Seq() base.SeqNum { return s.seq }

// Release unpins the snapshot. Only the first call has an effect.
func (s *Snapshot) Release() {
	d := s.db
	d.mu.Lock()
	defer d.mu.Unlock()
	if s.released {
		return
	}
	s.released = true
	i := sort.Search(len(d.snapshots), func(i int) bool { return d.snapshots[i] >= s.seq })
	if i < len(d.snapshots) && d.snapshots[i] == s.seq {
		d.snapshots = append(d.snapshots[:i], d.snapshots[i+1:]...)
	}
}

// ---------------------------------------------------------------------------
// Read path

// invalidateReadViews drops every cached sorted view. Called lock-free after
// a version edit has installed: the timing is purely a memory-management
// concern, because views are keyed by version identity — a stale entry can
// only be looked up by a scan still pinning that same (immutable) version,
// for which it remains correct.
func (d *DB) invalidateReadViews() {
	if d.readViews != nil {
		d.readViews.Invalidate()
	}
}

// readState is a consistent view captured under d.mu. It holds a reference
// to its memtables, so their arenas stay intact, and to its version, so
// every table it may open stays on disk, until release.
type readState struct {
	mem     *memtable.MemTable
	imms    []immEntry // oldest first
	version *manifest.Version
	seq     base.SeqNum
}

// readStateLocked captures the current read state, referencing its
// memtables and its version. Caller holds d.mu.
func (d *DB) readStateLocked() readState {
	rs := readState{
		mem:     d.mem,
		imms:    append([]immEntry(nil), d.imm...),
		version: d.vs.Ref(),
		// The published counter, not the allocated one: sequence numbers
		// above it may not have reached the memtable yet.
		seq: d.visibleSeqNum(),
	}
	rs.mem.Ref()
	for _, e := range rs.imms {
		e.mem.Ref()
	}
	return rs
}

// acquireReadState captures a read state at the snapshot (nil = latest);
// the caller hands it to release when done.
func (d *DB) acquireReadState(snap *Snapshot) (readState, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return readState{}, ErrClosed
	}
	rs := d.readStateLocked()
	if snap != nil {
		rs.seq = snap.seq
	}
	return rs, nil
}

// release drops every reference the read state holds: a memtable already
// flushed recycles its arena with the last of its references.
func (d *DB) release(rs readState) {
	rs.mem.Unref()
	for _, e := range rs.imms {
		e.mem.Unref()
	}
	d.unref(rs.version)
}

// unref drops a reference taken with VersionSet.Ref and unlinks the files
// whose last holder it was.
func (d *DB) unref(v *manifest.Version) { d.removeDead(v.Unref()) }

// removeDead unlinks replaced files that no version holds any more.
func (d *DB) removeDead(dead []base.FileNum) {
	for _, fn := range dead {
		d.removeTable(fn, true)
		d.stats.ZombieTables.Add(-1)
	}
}

// removeTable is the one place a table file dies: it closes the file's
// cached reader, drops its blocks and unlinks it. Only an announced file —
// one a FileCreate was emitted for, because a version held it — is
// accounted and reported deleted.
func (d *DB) removeTable(fn base.FileNum, announced bool) {
	d.cache.evict(fn)
	_ = d.opts.FS.Remove(manifest.MakeFilename(d.dirname, manifest.FileTypeTable, fn))
	if announced {
		d.stats.FilesDeleted.Add(1)
		d.trace.Emit(event.Event{Type: event.FileDelete, File: uint64(fn)})
	}
}

// collectRangeTombstones gathers every range tombstone visible at rs.seq:
// the memtables' and the version's own list, which arrived in the same
// atomic install as the files carrying them. Only the eager-job picker pays
// for this copy (its job outlives the read state); reads ask covered.
func collectRangeTombstones(rs readState) []base.RangeTombstone {
	var out []base.RangeTombstone
	add := func(rts []base.RangeTombstone) {
		for _, rt := range rts {
			if rt.Seq <= rs.seq {
				out = append(out, rt)
			}
		}
	}
	add(rs.mem.RangeTombstones())
	for _, e := range rs.imms {
		add(e.mem.RangeTombstones())
	}
	add(rs.version.RangeTombstones())
	return out
}

// covered is the KiWi read-path filter: it reports whether a range tombstone
// visible at rs.seq deletes an entry with delete key dk written at entrySeq.
// The memtables' and the version's lists are immutable once loaded, so it
// walks them in place; a memtable's list may have grown past rs.seq since
// the read state was taken, hence the visibility filter on every tombstone.
func (rs readState) covered(dk base.DeleteKey, entrySeq base.SeqNum) bool {
	in := func(rts []base.RangeTombstone) bool {
		for _, rt := range rts {
			if rt.Seq <= rs.seq && rt.Covers(dk, entrySeq) {
				return true
			}
		}
		return false
	}
	if in(rs.mem.RangeTombstones()) {
		return true
	}
	for _, e := range rs.imms {
		if in(e.mem.RangeTombstones()) {
			return true
		}
	}
	return in(rs.version.RangeTombstones())
}

// hasRangeTombstones reports whether any of the read state's lists holds a
// tombstone. Every tombstone visible at rs.seq reached its memtable before
// that sequence number was published, so a false answer holds for the read
// state's whole life: what a memtable's list gains later is newer than rs.seq.
func (rs readState) hasRangeTombstones() bool {
	if rs.mem.NumRangeDeletes() > 0 || len(rs.version.RangeTombstones()) > 0 {
		return true
	}
	for _, e := range rs.imms {
		if e.mem.NumRangeDeletes() > 0 {
			return true
		}
	}
	return false
}

// Get returns the value of key, or ErrNotFound.
func (d *DB) Get(key []byte) ([]byte, error) { return d.GetAt(key, nil) }

// GetAt returns the value of key as of the snapshot (nil = latest).
func (d *DB) GetAt(key []byte, snap *Snapshot) ([]byte, error) {
	return d.GetAtCtx(context.Background(), key, snap)
}

func (d *DB) getAt(key []byte, snap *Snapshot) ([]byte, error) {
	rs, err := d.acquireReadState(snap)
	if err != nil {
		return nil, err
	}
	defer d.release(rs)
	d.stats.Gets.Add(1)

	res, err := d.searchSources(rs, key)
	if err != nil {
		return nil, err
	}
	defer res.Release()
	if !res.Found || res.Kind == base.KindDelete {
		return nil, ErrNotFound
	}
	// Secondary range tombstones may invalidate the found version.
	if d.opts.DeleteKeyFunc != nil && rs.covered(d.opts.DeleteKeyFunc(res.Value), res.Seq) {
		return nil, ErrNotFound
	}
	d.stats.GetHits.Add(1)
	// res.Value aliases a memtable node, whose arena rs references, or a
	// table block res pins (see getFromTable), both until the deferred
	// releases; this is the one copy a Get hit makes.
	return append([]byte(nil), res.Value...), nil
}

// searchSources probes memtables then levels, newest to oldest, returning
// the first (newest) version of key at or below rs.seq. A version found in a
// table pins its block: the caller must Release the result.
func (d *DB) searchSources(rs readState, key []byte) (sstable.LookupResult, error) {
	if k, v, s, ok := rs.mem.Get(key, rs.seq); ok {
		return sstable.LookupResult{Kind: k, Value: v, Seq: s, Found: true}, nil
	}
	for i := len(rs.imms) - 1; i >= 0; i-- {
		if k, v, s, ok := rs.imms[i].mem.Get(key, rs.seq); ok {
			return sstable.LookupResult{Kind: k, Value: v, Seq: s, Found: true}, nil
		}
	}
	for l := 0; l < manifest.NumLevels; l++ {
		for _, run := range rs.version.Levels[l] { // newest run first
			for _, f := range run.Find(key, key) {
				res, err := d.getFromTable(f, key, rs.seq)
				if err != nil || res.Found {
					return res, err
				}
			}
		}
	}
	return sstable.LookupResult{}, nil
}

// getFromTable looks key up in one table. A found version's value aliases
// the table's block, pinned by the result until its Release, so it stays
// intact while getAt copies it even if the block is evicted and its file
// dies meanwhile.
func (d *DB) getFromTable(f *manifest.FileMetadata, key []byte, seq base.SeqNum) (sstable.LookupResult, error) {
	r, err := d.cache.get(f.FileNum)
	if err != nil {
		return sstable.LookupResult{}, err
	}
	res, err := r.Lookup(key, seq)
	if err != nil {
		return sstable.LookupResult{}, err
	}
	if res.Filtered {
		d.stats.BloomSkips.Add(1)
		return res, nil
	}
	d.stats.TablesProbed.Add(1)
	// Classify the filters' "maybe": with filters enabled, a probe that
	// finds a version (at or below the read sequence) was a true positive;
	// one that finds nothing was a false positive out of the filters' error
	// budget — in a KiWi table, of any of the tile's page filters.
	if d.opts.BloomBitsPerKey > 0 {
		if res.Found {
			d.stats.BloomTruePositives.Add(1)
		} else {
			d.stats.BloomFalsePositives.Add(1)
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Introspection

// LevelInfo summarizes one level for tooling.
type LevelInfo struct {
	Runs  int
	Files int
	Bytes uint64
	// Tombstones counts point tombstones resident in the level.
	Tombstones uint64
}

// Levels returns a per-level summary of the tree.
func (d *DB) Levels() [manifest.NumLevels]LevelInfo {
	v := d.vs.Current()
	var out [manifest.NumLevels]LevelInfo
	for l := range v.Levels {
		for _, r := range v.Levels[l] {
			out[l].Runs++
			out[l].Files += len(r.Files)
			out[l].Bytes += r.Size()
			for _, f := range r.Files {
				out[l].Tombstones += f.NumDeletes
			}
		}
	}
	return out
}

// DiskSize returns the total bytes of live sstables.
func (d *DB) DiskSize() uint64 { return d.vs.Current().TotalSize() }

// PolicyName returns the name of the compaction policy in use ("leveled",
// "size-tiered", or "lazy-leveling").
func (d *DB) PolicyName() string { return d.policy.Name() }

// fileMetaFrom converts a finished table's writer metadata into manifest
// metadata, widening bounds for range-tombstone-only tables.
func fileMetaFrom(fn base.FileNum, meta sstable.WriterMeta) *manifest.FileMetadata {
	f := &manifest.FileMetadata{
		FileNum:         fn,
		Size:            meta.Size,
		Smallest:        meta.Smallest,
		Largest:         meta.Largest,
		NumEntries:      meta.Props.NumEntries,
		NumDeletes:      meta.Props.NumDeletes,
		NumRangeDeletes: meta.Props.NumRangeDeletes,
		RangeTombstones: meta.RangeTombstones,
		HasTombstones:   meta.Props.NumDeletes > 0 || meta.Props.NumRangeDeletes > 0,
		OldestTombstone: meta.Props.OldestTombstone,
		DeleteKeyMin:    meta.Props.DeleteKeyMin,
		DeleteKeyMax:    meta.Props.DeleteKeyMax,
		LargestSeqNum:   meta.Props.MaxSeqNum,
		SmallestSeqNum:  meta.Props.MinSeqNum,
		HasDuplicates:   meta.Props.HasDuplicates,
	}
	if meta.Props.NumEntries == 0 && meta.Props.NumRangeDeletes > 0 {
		f.Smallest, f.Largest = wholeKeySpace()
	}
	return f
}

// wholeKeySpace returns the bounds of a tombstone-only table, which covers
// the whole key space. The lower bound is empty-but-non-nil: nil user keys
// read as "no bounds at all" to the compaction span computation.
func wholeKeySpace() (smallest, largest base.InternalKey) {
	return base.MakeSearchKey([]byte{}, base.MaxSeqNum), base.MakeInternalKey(maxUserKeySentinel, 0, base.KindSet)
}
