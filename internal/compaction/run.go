package compaction

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/base"
	"repro/internal/iterator"
	"repro/internal/manifest"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// Env carries everything a compaction execution needs from the engine. Run
// calls OpenReader and RangeTombstoneDisposable on its caller's goroutine,
// FS and AllocFileNum on its writer goroutine, and the writers' DeleteKeyFunc
// on both, concurrently.
type Env struct {
	// FS and Dirname locate output files.
	FS      vfs.FS
	Dirname string
	// Writers lends the job its table writer, which goes back when Run
	// returns; their options configure the output tables (block size,
	// bloom, KiWi tiles).
	Writers *sstable.WriterPool
	// TargetFileBytes rolls output files at this size.
	TargetFileBytes uint64
	// OpenReader returns a (cached) reader for a live table.
	OpenReader func(base.FileNum) (*sstable.Reader, error)
	// AllocFileNum reserves output file numbers.
	AllocFileNum func() base.FileNum

	// Snapshots are the active snapshot sequence numbers, ascending.
	// Versions straddling a snapshot boundary must both be kept.
	Snapshots []base.SeqNum
	// Bottommost reports that no level deeper than the output holds data
	// overlapping the compaction's key range, enabling tombstone
	// disposal — the moment a delete becomes persistent.
	Bottommost bool
	// RangeTombstoneDisposable reports whether, once this compaction has
	// dropped every covered entry it processes, no file *outside* the
	// compaction could still hold an entry the tombstone covers. A range
	// tombstone spans the whole key space (its reach is in delete-key
	// space), so key-range bottommost-ness alone is not sufficient to
	// retire it. Nil means never dispose.
	RangeTombstoneDisposable func(base.RangeTombstone) bool
	// LiveRangeTombstones are range tombstones held outside the inputs
	// (memtables, other files). The compaction applies them under the rules
	// of the inputs' own, but they stay where they live: never written to
	// an output, never reported as disposed.
	LiveRangeTombstones []base.RangeTombstone
}

// OutputFile pairs a new table's number with its metadata.
type OutputFile struct {
	FileNum base.FileNum
	Meta    sstable.WriterMeta
}

// Result summarizes an executed compaction.
type Result struct {
	Outputs []OutputFile

	// BytesRead and BytesWritten feed write-amplification accounting.
	BytesRead    uint64
	BytesWritten uint64
	// ShadowedDropped counts superseded versions discarded.
	ShadowedDropped uint64
	// TombstonesDropped counts point tombstones disposed of (deletes
	// persisted).
	TombstonesDropped uint64
	// TombstonesSuperseded counts tombstones dropped because a newer
	// write shadowed them (not a persistence event, but the tombstone no
	// longer exists).
	TombstonesSuperseded uint64
	// RangeTombstonesDropped counts disposed secondary range tombstones.
	RangeTombstonesDropped uint64
	// DisposedCreatedAt holds the creation timestamp of every tombstone
	// counted in RangeTombstonesDropped and TombstonesDropped, in that
	// order: what the engine needs to book persistence latency once the
	// job's edit is installed.
	DisposedCreatedAt []base.Timestamp
	// RangeCoveredDropped counts entries discarded because a secondary
	// range tombstone covered them.
	RangeCoveredDropped uint64
	// PagesDropped counts whole KiWi pages elided without being read.
	PagesDropped uint64

	// MergeWait is how long the merge waited on the writer goroutine: for
	// room to hand a batch over, and at the join. WriterWait is how long the
	// writer waited for the merge's next batch (or its end). A job its writer
	// bounds shows as MergeWait, one its merge bounds as WriterWait.
	MergeWait, WriterWait time.Duration
}

// noSnapshotIn reports that no active snapshot t satisfies lo <= t < hi,
// i.e. versions at lo and hi-1 belong to the same visibility stripe.
func noSnapshotIn(snaps []base.SeqNum, lo, hi base.SeqNum) bool {
	i := sort.Search(len(snaps), func(i int) bool { return snaps[i] >= lo })
	return i >= len(snaps) || snaps[i] >= hi
}

// applicableRangeDels returns the tombstones of lists that a merge may apply
// to the entries it drops: those no active snapshot predates.
func applicableRangeDels(snaps []base.SeqNum, lists ...[]base.RangeTombstone) []base.RangeTombstone {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]base.RangeTombstone, 0, n)
	for _, l := range lists {
		for _, rt := range l {
			if noSnapshotIn(snaps, 0, rt.Seq) {
				out = append(out, rt)
			}
		}
	}
	return out
}

// Run executes the candidate: merges its inputs (its memtable, if any,
// among them), applies shadowing, tombstone-disposal and KiWi page/entry
// drops, and writes the output tables. It does not touch the manifest; the
// engine applies the edit. The
// tables are written by a goroutine of Run's own (see pipe), which has exited
// by the time Run returns. On any error it closes the table being written and
// unlinks everything it wrote, so a failed (and retried) merge leaves no
// orphan behind.
func Run(c *Candidate, env Env) (_ *Result, err error) {
	res := &Result{}

	// Collect readers and range tombstones from every input file.
	var own []base.RangeTombstone
	var numDeletes uint64
	collect := func(files []*manifest.FileMetadata) ([]*sstable.Reader, error) {
		rs := make([]*sstable.Reader, len(files))
		for i, f := range files {
			r, err := env.OpenReader(f.FileNum)
			if err != nil {
				return nil, fmt.Errorf("compaction: opening input %s: %w", f.FileNum, err)
			}
			rs[i] = r
			own = append(own, r.RangeTombstones()...)
			numDeletes += f.NumDeletes
		}
		return rs, nil
	}

	// applicable are the range tombstones the drops below may apply: the
	// inputs' own and the live ones, less those an open snapshot predates.
	// It is set once every input is collected, before the first page is read.
	var applicable []base.RangeTombstone
	// pageFilter implements the KiWi fast path: a page is elided when a
	// range tombstone fully covers its delete-key span, it holds no
	// tombstones, all its entries predate the tombstone, and no snapshot
	// could still need its contents. One tombstone must cover the whole
	// span: asking the skyline, a union of several, would drop pages this
	// rule reads, and change what the job reads and reports.
	//
	// Page drops are only sound for files where no *older* version of a
	// dropped key could surface afterwards: the file must belong to the
	// compaction's oldest run, the compaction must be bottommost (nothing
	// older below), and the file must hold a single version per key.
	pageFilter := func(p sstable.PageInfo) bool {
		for _, rt := range applicable {
			if p.Droppable(rt) {
				return false // drop
			}
		}
		return true
	}
	filterFor := func(f *manifest.FileMetadata, oldestRun bool) sstable.PageFilter {
		if env.Bottommost && oldestRun && !f.HasDuplicates {
			return pageFilter
		}
		return nil
	}

	var sources []iterator.Internal
	var iters []*sstable.Iter
	addRun := func(files []*manifest.FileMetadata, oldestRun bool) error {
		rs, err := collect(files)
		if err != nil {
			return err
		}
		switch len(rs) {
		case 0:
		case 1:
			it := rs[0].NewCompactionIter(filterFor(files[0], oldestRun))
			iters = append(iters, it)
			sources = append(sources, it)
		default:
			metas := files
			concat := iterator.NewConcat(len(rs),
				func(i int) (base.InternalKey, base.InternalKey) {
					return metas[i].Smallest, metas[i].Largest
				},
				func(i int) (iterator.Internal, error) {
					it := rs[i].NewCompactionIter(filterFor(metas[i], oldestRun))
					iters = append(iters, it)
					return it, nil
				})
			sources = append(sources, concat)
		}
		return nil
	}

	if c.Mem != nil {
		sources = append(sources, c.Mem.NewIter())
		own = append(own, c.Mem.RangeTombstones()...)
		numDeletes += uint64(c.Mem.NumDeletes())
	}
	// An input that fails to open ends the job before the merge exists to
	// close the sources: the memtable's iterator holds a reference.
	closeSources := func() {
		for _, s := range sources {
			s.Close()
		}
	}
	for i, r := range c.Inputs {
		// Without an output run the last input run (inputs are newest
		// first) is the compaction's oldest data.
		oldest := len(c.OutputRunFiles) == 0 && i == len(c.Inputs)-1
		if err := addRun(r.Files, oldest); err != nil {
			closeSources()
			return nil, err
		}
	}
	if len(c.OutputRunFiles) > 0 {
		if err := addRun(c.OutputRunFiles, true); err != nil {
			closeSources()
			return nil, err
		}
	}

	// Partition range tombstones into disposable and surviving. Disposal
	// requires that this compaction erases every covered entry it sees
	// (bottommost + snapshot-free) and that nothing outside it could
	// still hold covered entries. Snapshot-free here means NO open
	// snapshot at all: one below rt.Seq still reads covered entries, and
	// one at/above rt.Seq can pin a covered old version through the
	// stripe rule — the version survives the merge, so the tombstone
	// hiding it must survive too. Only the inputs' own tombstones are
	// partitioned; the live ones from outside join the set the filters
	// apply and nothing else.
	var surviving []base.RangeTombstone
	applicable = applicableRangeDels(env.Snapshots, own, env.LiveRangeTombstones)
	// The entry-level drop asks whether any of them covers an entry: the
	// skyline answers that with one binary search.
	var skyline base.Skyline
	deleteKey := env.Writers.Options().DeleteKeyFunc
	if env.Bottommost && deleteKey != nil {
		skyline.Build(applicable)
	}
	if env.Bottommost {
		res.DisposedCreatedAt = make([]base.Timestamp, 0, uint64(len(own))+numDeletes)
	}
	for _, rt := range own {
		if env.Bottommost && len(env.Snapshots) == 0 &&
			env.RangeTombstoneDisposable != nil && env.RangeTombstoneDisposable(rt) {
			res.RangeTombstonesDropped++
			res.DisposedCreatedAt = append(res.DisposedCreatedAt, rt.CreatedAt)
		} else {
			surviving = append(surviving, rt)
		}
	}

	merged := iterator.NewMerge(sources...)
	defer merged.Close()
	p := startPipe(newOutputWriter(env, surviving))
	defer func() {
		if err != nil {
			p.close(true)
			p.out.abort()
		}
		p.out.release()
	}()

	// ik and value alias the input iterators' pinned pages, which they
	// release on leaving a tile: both are dead after merged.Next. The one
	// thing kept across iterations is the previous user key, copied into
	// lastUserKey when a new one arrives; a kept entry is copied into the
	// pipe's batch.
	var (
		lastUserKey  []byte
		lastKeptSeq  base.SeqNum
		haveLast     bool
		keyWipedByRT bool // newest version of lastUserKey was dropped via range tombstone
		keyWipedSeq  base.SeqNum
	)

	for valid := merged.First(); valid; valid = merged.Next() {
		ik := merged.Key()
		value := merged.Value()
		newKey := !haveLast || base.Compare(ik.UserKey, lastUserKey) != 0

		if newKey {
			haveLast = true
			keyWipedByRT = false
			lastUserKey = append(lastUserKey[:0], ik.UserKey...)
		} else {
			// An older version of a key we have already emitted (or
			// wiped). Drop it if it shares a visibility stripe with
			// the newer decision point.
			newerSeq := lastKeptSeq
			if keyWipedByRT {
				newerSeq = keyWipedSeq
			}
			if noSnapshotIn(env.Snapshots, ik.SeqNum(), newerSeq) {
				switch {
				case ik.Kind() == base.KindDelete && env.Bottommost:
					res.TombstonesDropped++
					res.DisposedCreatedAt = append(res.DisposedCreatedAt, base.DecodeTombstoneValue(value))
				case ik.Kind() == base.KindDelete:
					res.TombstonesSuperseded++
				default:
					res.ShadowedDropped++
				}
				continue
			}
			// Visible to a snapshot stripe: fall through and keep it.
		}

		switch ik.Kind() {
		case base.KindDelete:
			// A tombstone that is the newest version (or stripe-
			// visible) of its key. Dispose of it at the bottom.
			if env.Bottommost && noSnapshotIn(env.Snapshots, 0, ik.SeqNum()) {
				res.TombstonesDropped++
				res.DisposedCreatedAt = append(res.DisposedCreatedAt, base.DecodeTombstoneValue(value))
				// Older versions of this key are shadowed by the
				// stripe rule with lastKeptSeq = this seq.
				lastKeptSeq = ik.SeqNum()
				continue
			}

		case base.KindSet:
			// Entry-level KiWi drop: the newest version of a key
			// whose delete key a range tombstone covers vanishes at
			// the bottommost level (no deeper versions exist to
			// resurrect).
			if newKey && env.Bottommost && deleteKey != nil {
				if skyline.Covers(deleteKey(value), ik.SeqNum()) {
					keyWipedByRT = true
					keyWipedSeq = ik.SeqNum()
					res.RangeCoveredDropped++
					continue
				}
			}

		default:
			return nil, fmt.Errorf("compaction: unexpected kind %s in merge", ik.Kind())
		}
		if err := p.add(ik, value); err != nil {
			return nil, err
		}
		lastKeptSeq = ik.SeqNum()
	}
	if err := merged.Error(); err != nil {
		return nil, err
	}
	for _, it := range iters {
		res.PagesDropped += it.Dropped()
		res.BytesRead += it.BytesLoaded()
	}
	if err := p.close(false); err != nil {
		return nil, err
	}
	res.Outputs = p.out.outputs
	res.MergeWait, res.WriterWait = p.mergeWait, p.writerWait
	for _, of := range res.Outputs {
		res.BytesWritten += of.Meta.Size
	}
	return res, nil
}

// The merge and the table writer run on two goroutines: Run's loop decides
// what survives and copies each kept entry into a batch; one writer goroutine
// per job owns the outputWriter and adds every batch's entries, in order, to
// the output tables. Batches are large because handing one over wakes the
// other goroutine, which costs about as long as producing a few tens of KiB
// of entries: with small batches the two stages mostly take turns. Of the
// batches in flight, the merge fills one, the writer empties one and the rest
// wait between them. They come from a pool that outlives the job, so a job
// allocates none.
const (
	batchBytes      = 128 << 10
	batchesInFlight = 4
)

// batch is a run of kept entries in merge order: user keys and values back to
// back in buf, and for each entry its trailer and where its key and value end.
type batch struct {
	buf  []byte
	ents []batchEntry
}

type batchEntry struct {
	trailer        base.Trailer
	keyEnd, valEnd int
}

var batchPool = sync.Pool{New: func() any { return &batch{buf: make([]byte, 0, batchBytes)} }}

// getBatch returns an empty batch from the pool.
func getBatch() *batch {
	b := batchPool.Get().(*batch)
	b.reset()
	return b
}

func (b *batch) reset() { b.buf, b.ents = b.buf[:0], b.ents[:0] }

// pipe hands the merge's kept entries to the writer goroutine. The merge
// fills cur and sends it on full; the writer returns each batch it has
// written to the pool.
type pipe struct {
	out  *outputWriter // the writer goroutine's alone until done is closed
	cur  *batch
	full chan *batch
	done chan struct{} // closed when the writer goroutine has exited
	err  error         // the writer's error; read only after done
	// mergeWait is the merge's time blocked on the writer, writerWait (read
	// only after done) the writer's blocked on the merge.
	mergeWait, writerWait time.Duration
	// abandon, set before full is closed, tells the writer not to finish
	// the table in progress.
	abandon bool
	closed  bool
}

func startPipe(out *outputWriter) *pipe {
	p := &pipe{
		out:  out,
		cur:  getBatch(),
		full: make(chan *batch, batchesInFlight-2),
		done: make(chan struct{}),
	}
	go p.write()
	return p
}

// add copies one kept entry into the current batch, handing the batch over
// first if the entry would not fit. A writer error surfaces here.
func (p *pipe) add(ik base.InternalKey, value []byte) error {
	if len(p.cur.ents) > 0 && len(p.cur.buf)+len(ik.UserKey)+len(value) > batchBytes {
		if err := p.handoff(); err != nil {
			return err
		}
	}
	b := p.cur
	b.buf = append(b.buf, ik.UserKey...)
	keyEnd := len(b.buf)
	b.buf = append(b.buf, value...)
	b.ents = append(b.ents, batchEntry{trailer: ik.Trailer, keyEnd: keyEnd, valEnd: len(b.buf)})
	return nil
}

// handoff passes the current batch to the writer and starts a new one. Once
// the writer has stopped, it returns the writer's error instead.
func (p *pipe) handoff() error {
	// A stopped writer can leave room in full: look at done first, so that
	// the error surfaces here and not a few batches later.
	select {
	case <-p.done:
		return p.err
	default:
	}
	start := time.Now()
	select {
	case p.full <- p.cur:
		p.mergeWait += time.Since(start)
		p.cur = getBatch()
		return nil
	case <-p.done:
		return p.err
	}
}

// write is the writer goroutine. It stops at its first error; otherwise it
// writes until full is closed and then finishes the last table, unless the
// merge abandoned the job.
func (p *pipe) write() {
	defer close(p.done)
	for {
		start := time.Now()
		b, ok := <-p.full
		p.writerWait += time.Since(start)
		if !ok {
			break
		}
		err := p.writeBatch(b)
		batchPool.Put(b)
		if err != nil {
			p.err = err
			return
		}
	}
	if !p.abandon {
		p.err = p.out.finish()
	}
}

func (p *pipe) writeBatch(b *batch) error {
	start := 0
	for _, e := range b.ents {
		ik := base.InternalKey{UserKey: b.buf[start:e.keyEnd:e.keyEnd], Trailer: e.trailer}
		if err := p.out.add(ik, b.buf[e.keyEnd:e.valEnd:e.valEnd]); err != nil {
			return err
		}
		start = e.valEnd
	}
	return nil
}

// close hands over the last batch — or, when abandoning, tells the writer to
// stop — waits for the writer goroutine to exit, returns every batch to the
// pool and reports the writer's error. Only after close may the caller read
// or abort p.out. A second call only repeats the error.
func (p *pipe) close(abandon bool) error {
	if p.closed {
		return p.err
	}
	p.closed = true
	start := time.Now()
	if len(p.cur.ents) > 0 && !abandon {
		select {
		case p.full <- p.cur:
			p.cur = nil
		case <-p.done:
		}
	}
	p.abandon = abandon
	close(p.full)
	<-p.done
	p.mergeWait += time.Since(start)
	if p.cur != nil {
		batchPool.Put(p.cur)
	}
	for b := range p.full {
		batchPool.Put(b)
	}
	return p.err
}

// outputWriter rolls output tables at the target size and attaches
// surviving range tombstones to the first output. One sstable.Writer,
// borrowed from Env.Writers, serves every output, re-targeted at each new
// file.
type outputWriter struct {
	env       Env
	surviving []base.RangeTombstone
	rtPlaced  bool

	w       *sstable.Writer // nil until the first output is opened
	open    bool            // w has a table in progress
	curFile vfs.File
	curNum  base.FileNum
	curSize uint64
	outputs []OutputFile
}

func newOutputWriter(env Env, surviving []base.RangeTombstone) *outputWriter {
	return &outputWriter{env: env, surviving: surviving}
}

// start begins the next output table; the first one carries the surviving
// range tombstones.
func (o *outputWriter) start() error {
	num := o.env.AllocFileNum()
	f, err := o.env.FS.Create(manifest.MakeFilename(o.env.Dirname, manifest.FileTypeTable, num))
	if err != nil {
		return err
	}
	if o.w == nil {
		o.w = o.env.Writers.Get(f)
	} else {
		o.w.Reset(f)
	}
	o.open, o.curFile, o.curNum, o.curSize = true, f, num, 0
	if !o.rtPlaced {
		for _, rt := range o.surviving {
			if err := o.w.AddRangeTombstone(rt); err != nil {
				return err
			}
		}
		o.rtPlaced = true
	}
	return nil
}

func (o *outputWriter) add(ik base.InternalKey, value []byte) error {
	if !o.open {
		if err := o.start(); err != nil {
			return err
		}
	}
	if err := o.w.Add(ik, value); err != nil {
		return err
	}
	o.curSize += uint64(ik.Size() + len(value))
	if o.curSize >= o.env.TargetFileBytes {
		return o.roll()
	}
	return nil
}

func (o *outputWriter) roll() error {
	if !o.open {
		return nil
	}
	meta, err := o.w.Finish()
	if err != nil {
		return err
	}
	o.open = false
	if meta.HasEntries() {
		o.outputs = append(o.outputs, OutputFile{FileNum: o.curNum, Meta: meta})
	} else {
		o.remove(o.curNum)
	}
	return nil
}

func (o *outputWriter) finish() error {
	// Surviving range tombstones must persist even when no entries were
	// written (e.g. everything was dropped).
	if !o.open && !o.rtPlaced && len(o.surviving) > 0 {
		if err := o.start(); err != nil {
			return err
		}
	}
	return o.roll()
}

// abort closes the table being written and unlinks every file this writer
// created.
func (o *outputWriter) abort() {
	if o.open {
		vfs.BestEffortClose(o.curFile)
		o.remove(o.curNum)
	}
	for _, of := range o.outputs {
		o.remove(of.FileNum)
	}
}

// release gives the writer back to the job's pool. Called once the writer
// goroutine has exited.
func (o *outputWriter) release() {
	if o.w != nil {
		o.env.Writers.Put(o.w)
		o.w = nil
	}
}

func (o *outputWriter) remove(num base.FileNum) {
	_ = o.env.FS.Remove(manifest.MakeFilename(o.env.Dirname, manifest.FileTypeTable, num))
}
