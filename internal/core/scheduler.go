package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/event"
	"repro/internal/manifest"
)

// JobKind classifies a maintenance job.
type JobKind int

const (
	// JobFlush drains one immutable memtable to level 0.
	JobFlush JobKind = iota
	// JobCompact runs a compaction candidate: a merge between levels, a
	// trivial move, or an in-place rewrite or drop of one file (the KiWi
	// eager erase, trigger range-delete).
	JobCompact
)

// String implements fmt.Stringer.
func (k JobKind) String() string {
	if k == JobCompact {
		return "compact"
	}
	return "flush"
}

// JobInfo records one completed maintenance job for observability. The
// interval [Started, Finished] lets tests and tools detect overlap between
// jobs — e.g. that a TTL compaction ran while a saturation compaction was
// still in flight.
type JobInfo struct {
	ID      uint64
	Kind    JobKind
	Trigger compaction.Trigger
	// Policy names the compaction policy the job ran under; empty for
	// flushes.
	Policy      string
	StartLevel  int
	OutputLevel int
	Started     time.Time
	Finished    time.Time
	BytesIn     uint64
	BytesOut    uint64
	Err         error
}

// maxRecentJobs bounds the completed-job ring buffer.
const maxRecentJobs = 64

// scheduler counts the maintenance work in flight — every flush step and
// every claimed compaction, from claim to release, whoever runs it: an
// executor, MaintenanceStep, Flush or CompactAll — and keeps a ring of
// recently completed jobs. Job priority lives in the picker, not here —
// every executor asks the picker for the most urgent disjoint job, and the
// picker orders TTL (DPT-critical) ahead of L0 ahead of saturation.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	running int    // flush steps and claimed jobs in flight
	ended   uint64 // flush steps and claimed jobs ever finished

	nextID atomic.Uint64

	recent  [maxRecentJobs]JobInfo
	nRecent uint64 // total jobs ever recorded
}

func newScheduler() *scheduler {
	s := &scheduler{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// newID allocates a job id.
func (s *scheduler) newID() uint64 { return s.nextID.Add(1) }

// begin counts a flush step or a claimed job in.
func (s *scheduler) begin() {
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
}

// end counts a flush step or a claimed job out and wakes the waiters.
func (s *scheduler) end() {
	s.mu.Lock()
	s.running--
	s.ended++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// wake re-broadcasts the scheduler condition under its mutex; the context
// wake-up hook for condWaitCtx.
func (s *scheduler) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// waitQuietCtx blocks until no flush step or claimed job is running;
// returns the bare context error if ctx fires first.
func (s *scheduler) waitQuietCtx(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return condWaitCtx(ctx, s.cond, s.wake, func() bool { return s.running == 0 })
}

// endMark reads how many flush steps and claimed jobs have finished, for a
// later waitEndCtx.
func (s *scheduler) endMark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ended
}

// waitEndCtx blocks until a flush step or claimed job has finished since
// endMark returned mark; returns the bare context error if ctx fires first.
func (s *scheduler) waitEndCtx(ctx context.Context, mark uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return condWaitCtx(ctx, s.cond, s.wake, func() bool { return s.ended != mark })
}

// anyRunning reports whether a flush step or claimed job is in flight.
func (s *scheduler) anyRunning() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running > 0
}

// record appends a completed job to the ring.
func (s *scheduler) record(ji JobInfo) {
	s.mu.Lock()
	s.recent[s.nRecent%maxRecentJobs] = ji
	s.nRecent++
	s.mu.Unlock()
}

// jobOpName renders a job's operation label for trace events: "flush" or
// "compact/<trigger>".
func jobOpName(ji JobInfo) string {
	if ji.Kind == JobCompact {
		return "compact/" + ji.Trigger.String()
	}
	return ji.Kind.String()
}

// recordJob stamps a finished job with its end time and outcome, appends it
// to the observability ring and emits the matching JobCommit (or JobError)
// trace event — under the id, op and levels its JobClaim announced.
func (d *DB) recordJob(ji JobInfo, err error) {
	ji.Finished, ji.Err = time.Now(), err
	d.sched.record(ji)
	e := event.Event{
		Type:   event.JobCommit,
		Time:   ji.Finished,
		Op:     jobOpName(ji),
		Policy: ji.Policy,
		Job:    ji.ID,
		Level:  ji.StartLevel,
		Bytes:  int64(ji.BytesOut),
		Dur:    ji.Finished.Sub(ji.Started),
	}
	if ji.Err != nil {
		e.Type = event.JobError
		e.Err = ji.Err.Error()
	}
	d.trace.Emit(e)
}

// traceJobClaim emits the JobClaim event for a freshly picked job. policy is
// the policy's name for compaction claims and empty for flushes.
func (d *DB) traceJobClaim(id uint64, op string, level int, policy string) {
	d.trace.Emit(event.Event{Type: event.JobClaim, Op: op, Policy: policy, Job: id, Level: level})
}

// recentJobs returns the completed jobs still in the ring, oldest first.
func (s *scheduler) recentJobs() []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nRecent
	if n > maxRecentJobs {
		n = maxRecentJobs
	}
	out := make([]JobInfo, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, s.recent[(s.nRecent-n+i)%maxRecentJobs])
	}
	return out
}

// RecentMaintJobs returns the most recently completed maintenance jobs
// (flushes and compactions of every trigger), oldest first. The window is
// bounded; it is an observability aid, not a durable log.
func (d *DB) RecentMaintJobs() []JobInfo { return d.sched.recentJobs() }

// ---------------------------------------------------------------------------
// Executors

// startExecutors launches the maintenance pool: n goroutines running the one
// executor loop. The first executor flushes; the other n-1 run compactions
// and eager range-delete work level/key-disjoint from every in-flight job.
// A pool of one has nobody else to compact, so its step is the whole
// MaintenanceStep — flush, then eager work, then a compaction, strictly in
// that order — which is what deterministic drivers call by hand.
func (d *DB) startExecutors(n int) {
	kind, step := "flush", d.runFlushStep
	if n == 1 {
		kind, step = "maintenance", d.MaintenanceStep
	}
	d.wg.Add(n)
	go d.executor(kind, d.flushCh, step)
	for i := 1; i < n; i++ {
		go d.executor("compaction", d.compCh, d.runCompactionStep)
	}
}

// executor is the maintenance loop every pool member runs: sleep until woken
// (or the tick, which is what detects TTL expiry), then run step until it
// reports no work.
// Transient step errors retry with capped exponential backoff (a failed
// flush leaves its immutable queued, so the retry re-runs the same work);
// permanent or retry-exhausted errors set the sticky background error and
// stop the executor. kind labels the retry log lines and trace events.
func (d *DB) executor(kind string, wake <-chan struct{}, step func() (bool, error)) {
	defer d.wg.Done()
	ticker := time.NewTicker(d.opts.MaintenanceTickInterval)
	defer ticker.Stop()
	failures := 0
	for {
		select {
		case <-d.closeCh:
			return
		case <-wake:
		case <-ticker.C:
		}
		for {
			select {
			case <-d.closeCh:
				return
			default:
			}
			did, err := step()
			if err != nil {
				failures++
				if !d.noteJobError(kind, failures, err) {
					return
				}
				if !d.backoffWait(d.backoffDelay(failures)) {
					return
				}
				continue
			}
			failures = 0
			if !did {
				break
			}
		}
	}
}

// runFlushStep flushes one immutable memtable if any is queued.
func (d *DB) runFlushStep() (bool, error) {
	d.flushMu.Lock()
	defer d.flushMu.Unlock()
	d.sched.begin()
	defer d.sched.end()
	return d.flushOne()
}

// runCompactionStep claims and runs one unit of non-flush maintenance:
// eager range-delete work first (it is cheap and unblocks space), then the
// most urgent disjoint compaction.
func (d *DB) runCompactionStep() (bool, error) {
	var job *compactJob
	if d.opts.EagerRangeDeletes {
		job = d.pickEagerJob()
	}
	if job == nil {
		job = d.pickCompactionJob()
	}
	if job == nil {
		return false, nil
	}
	return true, d.runCompactionJob(job)
}

// compactJob is a picked-and-claimed compaction awaiting execution.
type compactJob struct {
	id   uint64
	v    *manifest.Version // the version the candidate was picked against, referenced until the job ends
	cand *compaction.Candidate

	// Set by the eager picker only: the range tombstones live at the pick
	// (none is in the input file), the watermark the file — or its
	// rewrite — takes once the job has run, and whether the whole file is
	// covered.
	live       []base.RangeTombstone
	applicable base.SeqNum
	covered    bool
}

// pickView is the engine state a picker reads, taken in claimJob's one d.mu
// section: the version (rs.version, referenced), the clock, the snapshot
// list and the memtables whose range tombstones the eager picker collects;
// claims are the running jobs' claims, live under pickMu for the pick.
type pickView struct {
	rs     readState
	now    base.Timestamp
	snaps  []base.SeqNum
	claims compaction.InFlightSet
}

// pickCompactionJob atomically picks the most urgent compaction disjoint
// from all in-flight jobs and claims its files and rectangle.
func (d *DB) pickCompactionJob() *compactJob {
	return d.claimJob(func(pv pickView) *compactJob {
		return candidateJob(d.policy.Pick(pv.rs.version, pv.now, len(pv.snaps) > 0, pv.claims))
	})
}

// candidateJob wraps a layout's pick, nil for none, as a job to claim.
func candidateJob(c *compaction.Candidate) *compactJob {
	if c == nil {
		return nil
	}
	return &compactJob{cand: c}
}

// claimJob is where every compaction is picked and claimed: it runs pick
// against one view of the engine and the running jobs' claims, claims the
// candidate of the job it returns and counts the job in until
// runCompactionJob releases it. pickMu makes pick+claim atomic: without it
// two executors could pick overlapping work before either claim landed. It
// guards the claim set too, release included, so a job that commits while
// the pick reads the version is either still claimed (it releases only
// after this pick) or already installed (it released, after its install,
// before this pick), never invisible to both checks.
func (d *DB) claimJob(pick func(pv pickView) *compactJob) *compactJob {
	d.pickMu.Lock()
	defer d.pickMu.Unlock()
	pv := pickView{claims: d.inflight}
	d.mu.Lock()
	pv.rs = readState{mem: d.mem, imms: append([]immEntry(nil), d.imm...), version: d.vs.Ref(), seq: d.visibleSeqNum()}
	pv.now = d.opts.Clock.Now()
	pv.snaps = append([]base.SeqNum(nil), d.snapshots...)
	d.mu.Unlock()

	j := pick(pv)
	if j == nil {
		d.unref(pv.rs.version)
		return nil
	}
	j.id, j.v = d.sched.newID(), pv.rs.version
	d.inflight.Claim(j.id, j.cand)
	d.sched.begin()
	d.traceJobClaim(j.id, "compact/"+j.cand.Trigger.String(), j.cand.StartLevel, d.policy.Name())
	return j
}

// runCompactionJob executes a claimed compaction and releases its claim and
// its version: the job's inputs die here unless a reader still holds them.
func (d *DB) runCompactionJob(j *compactJob) error {
	d.stats.CompactionsInFlight.Add(1)
	err := d.runCandidate(j)
	d.stats.CompactionsInFlight.Add(-1)
	d.pickMu.Lock()
	d.inflight.Release(j.id)
	d.pickMu.Unlock()
	d.unref(j.v)
	d.sched.end()
	return err
}
